"""Low-level bit-vector helpers shared by the group-algebra and search code.

Each job has one implementation here: listing set bits, writing them as
decimal text, packing indices, mirroring a mask within a width, and
rotating an n-bit mask.  Set bits are listed, and indices packed, by one
rule on the mask's length: a Python byte walk up to _WALK_MAX_BYTES bytes,
numpy beyond; the decimal text always takes its indices from numpy.  No
other module turns a mask into bytes or back.

numpy loads on first use, in the functions that call it, so a process
that only walks short masks, such as every search, never imports it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import numpy as np

_BYTE_POSITIONS = tuple(
    tuple(j for j in range(8) if b >> j & 1) for b in range(256)
)

_BYTE_REVERSED = bytes(int(f"{b:08b}"[::-1], 2) for b in range(256))

_ZERO = ord("0")

# masks of more bytes than this list and pack their bits through numpy;
# shorter ones, such as every search mask, are walked in Python, where
# numpy's per-call cost would dominate
_WALK_MAX_BYTES = 64


def _positions_array(bits: int) -> np.ndarray:
    """Indices of set bits, ascending, as a numpy integer array."""
    import numpy as np

    raw = np.frombuffer(bits.to_bytes((bits.bit_length() + 7) >> 3, "little"), np.uint8)
    return np.flatnonzero(np.unpackbits(raw, bitorder="little").view(bool))


def bit_positions(bits: int) -> list[int]:
    """Indices of set bits, ascending, as Python ints.

    A mask of at most _WALK_MAX_BYTES bytes is walked byte by byte in
    Python; a longer one is unpacked by numpy, whose cost is the mask's
    length plus one Python int per set bit.
    """
    nbytes = (bits.bit_length() + 7) >> 3
    if nbytes > _WALK_MAX_BYTES:
        return _positions_array(bits).tolist()
    out: list[int] = []
    for i, byte in enumerate(bits.to_bytes(nbytes, "little")):
        if byte:
            base = i << 3
            for j in _BYTE_POSITIONS[byte]:
                out.append(base + j)
    return out


def positions_text(bits: int, sep: str = ",") -> str:
    """The decimal indices of the set bits, ascending, joined by ``sep``.

    The same text as ``sep.join(map(str, bit_positions(bits)))``, written
    by numpy with no Python int per member.  Ascending indices make each
    digit count one contiguous slice; a slice of w-digit indices becomes
    one uint8 matrix of w digit columns plus the separator's columns, and
    the matrices' bytes are the text.
    """
    import numpy as np

    # uint32 division by a constant is several times faster than int64's
    dtype = np.uint32 if bits.bit_length() <= 1 << 32 else np.uint64
    positions = _positions_array(bits).astype(dtype)
    tail = np.frombuffer(sep.encode("ascii"), np.uint8)
    chunks = []
    lo = 0
    width = 1
    while lo < positions.size:
        hi = int(np.searchsorted(positions, 10 ** width))
        block = np.empty((hi - lo, width + tail.size), np.uint8)
        block[:, width:] = tail
        rest = positions[lo:hi]
        for column in range(width - 1, 0, -1):
            quotient = rest // 10
            block[:, column] = rest + _ZERO - quotient * 10
            rest = quotient
        block[:, 0] = rest + _ZERO
        chunks.append(block.tobytes())
        lo = hi
        width += 1
    return b"".join(chunks)[: -tail.size or None].decode("ascii")


def bits_from_positions(width: int, positions) -> int:
    """Pack an iterable of ints in [0, width) into an int bitmask.

    The length rule of bit_positions applies to the width: up to
    _WALK_MAX_BYTES bytes, each index sets its bit in a bytearray in
    Python; beyond, numpy reads the indices into one array, flags them in
    a bool row and packs the row into bytes, with no Python step per index.
    Neither path checks an index (numpy casts a float, the walk raises), so
    every caller that takes outside input checks its indices first.
    """
    nbytes = (width + 7) >> 3
    if nbytes > _WALK_MAX_BYTES:
        import numpy as np

        flags = np.zeros(nbytes << 3, bool)
        flags[np.fromiter(positions, np.intp)] = True
        return int.from_bytes(np.packbits(flags, bitorder="little"), "little")
    buf = bytearray(nbytes)
    for p in positions:
        buf[p >> 3] |= 1 << (p & 7)
    return int.from_bytes(buf, "little")


def mirror(bits: int, width: int) -> int:
    """Mirror a mask within [0, width): bit i moves to bit width - 1 - i.

    Reversing the bits of every byte and reading the bytes in the opposite
    order mirrors the mask within a whole number of bytes; the final shift
    drops the padding above width.  Linear in width.
    """
    nbytes = (width + 7) >> 3
    reversed_bytes = bits.to_bytes(nbytes, "little").translate(_BYTE_REVERSED)
    return int.from_bytes(reversed_bytes, "big") >> (8 * nbytes - width)


def rotate(bits: int, r: int, n: int) -> int:
    """Rotate an n-bit mask left by r, 0 <= r <= n: bit p moves to (p + r) mod n."""
    return ((bits << r) | (bits >> (n - r))) & ((1 << n) - 1)
