"""Low-level bit-vector helpers shared by the group-algebra and search code.

Each job has one implementation here: listing set bits, packing indices,
mirroring a mask within a width, and rotating an n-bit mask.
"""

from __future__ import annotations

_BYTE_POSITIONS = tuple(
    tuple(j for j in range(8) if b >> j & 1) for b in range(256)
)

_BYTE_REVERSED = bytes(int(f"{b:08b}"[::-1], 2) for b in range(256))


def bit_positions(bits: int) -> list[int]:
    """Indices of set bits, ascending. O(total bytes + set bits)."""
    out: list[int] = []
    nbytes = (bits.bit_length() + 7) >> 3
    for i, byte in enumerate(bits.to_bytes(nbytes, "little")):
        if byte:
            base = i << 3
            for j in _BYTE_POSITIONS[byte]:
                out.append(base + j)
    return out


def bits_from_positions(width: int, positions) -> int:
    """Pack an iterable of indices in [0, width) into an int bitmask."""
    buf = bytearray((width + 7) >> 3)
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
