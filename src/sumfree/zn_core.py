"""Exact set algebra over the cyclic group Z_n.

A set is an immutable bit-vector: bit ``i`` of ``bits`` is set iff ``i`` is
a member.  All arithmetic is exact integer arithmetic.  Sumsets walk the
maximal runs of consecutive members of the smaller operand and merge
consecutive runs of one length, one gap apart, into progressions of runs:
each progression spreads the other operand by doubling shift-ORs, first
over a run and then over the run starts, and one fold at the end wraps
the union back into n bits.  The constructed sets (A u -A) u (B u -B) u C
make at most five progressions whatever their size, so S + S costs
O(log |S|) big-integer shifts on them (listing the runs stays linear in
their number), and O(runs) shifts on an unstructured set.  The result is
the per-member shifted OR bit for bit, and the tests check it against
that loop, against the per-run loop and against the naive double loop.

Everything here is a pure function of its arguments, so values can be shared
freely between threads or processes.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Iterable, Iterator, List

from ._bits import bit_positions, bits_from_positions, mirror, rotate
from .errors import (
    DomainError,
    IntervalCoversGroupError,
    ModulusMismatchError,
    NotAUnitError,
)

__all__ = [
    "CyclicSet",
    "SetProperties",
    "interval",
    "sumset",
    "negate",
    "dilate",
    "is_symmetric",
    "is_sum_free",
    "is_complete",
    "classify",
    "units",
    "set_to_json",
    "set_from_json",
]


# the largest modulus a set may have: its mask then takes 512 MiB, and
# packing members into it flags one byte per residue
_MAX_MODULUS = 1 << 32


def _require_modulus(n: int) -> None:
    """Refuse a modulus outside [1, _MAX_MODULUS] before anything is sized by it."""
    if n < 1:
        raise DomainError(f"modulus must be positive, got {n}")
    if n > _MAX_MODULUS:
        raise DomainError(f"modulus must be at most {_MAX_MODULUS}, got {n}")


@dataclass(frozen=True)
class CyclicSet:
    """A subset of Z_n as a fixed-modulus bit-vector."""

    modulus: int
    bits: int

    def __post_init__(self):
        _require_modulus(self.modulus)
        if self.bits < 0 or self.bits.bit_length() > self.modulus:
            raise DomainError(f"bit-vector out of range for modulus {self.modulus}")

    @classmethod
    def from_elements(cls, n: int, elements: Iterable[int]) -> "CyclicSet":
        """Build from any iterable of integers, reduced mod n.

        A non-integer member raises TypeError at every n; numpy's packer
        above 64 bytes would otherwise truncate a float silently.
        """
        _require_modulus(n)
        return cls(n, bits_from_positions(n, (operator.index(x) % n for x in elements)))

    @property
    def size(self) -> int:
        return self.bits.bit_count()

    def elements(self) -> List[int]:
        """Members as a sorted list of canonical representatives in [0, n)."""
        return bit_positions(self.bits)

    def __len__(self) -> int:
        return self.bits.bit_count()

    def __iter__(self) -> Iterator[int]:
        return iter(bit_positions(self.bits))

    def __contains__(self, x: int) -> bool:
        return self.bits >> (x % self.modulus) & 1 == 1

    def __or__(self, other: "CyclicSet") -> "CyclicSet":
        _require_same_modulus(self, other)
        return CyclicSet(self.modulus, self.bits | other.bits)

    def __and__(self, other: "CyclicSet") -> "CyclicSet":
        _require_same_modulus(self, other)
        return CyclicSet(self.modulus, self.bits & other.bits)

    def __sub__(self, other: "CyclicSet") -> "CyclicSet":
        _require_same_modulus(self, other)
        return CyclicSet(self.modulus, self.bits & ~other.bits)

    def __repr__(self) -> str:
        return f"CyclicSet(n={self.modulus}, {{{', '.join(map(str, self.elements()))}}})"


@dataclass(frozen=True)
class SetProperties:
    """Result of running all three predicates over one set."""

    symmetric: bool
    sum_free: bool
    complete: bool
    size: int


def _require_same_modulus(a: CyclicSet, b: CyclicSet) -> None:
    if a.modulus != b.modulus:
        raise ModulusMismatchError(f"moduli differ: {a.modulus} != {b.modulus}")


def _sumset_bits(a_bits: int, b_bits: int, n: int) -> int:
    """Bit-vector of {x + y : x in A, y in B} mod n, by progressions of runs of A.

    A (the operand with fewer members) is split into maximal runs
    [start, stop) of consecutive residues.  The edge mask A ^ (A << 1) has
    a bit at each run's first member and at the slot after its last, so
    its positions, taken in pairs, are the runs in order.  A run joins the
    open progression when it has the progression's length L and, from the
    third run on, lies the progression's gap D after the previous one;
    otherwise it opens a new progression.  A progression of m runs is the
    set first + {0, ..., L-1} + {0, D, ..., (m-1)D}: B + {0, ..., L-1} is
    built as a plain integer by doubling (B | B << 1, then that | itself
    << 2, ...), ceil(log2 L) shift-ORs, the same doubling with shifts of
    width * D spreads it over the run starts, and a left shift by first
    places it.  A lone run is the case m = 1 and skips the second doubling.
    Every progression lies inside [0, n), so every placed bit stays below
    2n and the single fold acc | acc >> n at the end takes each bit p to
    p mod n.  The union over progressions is the union over members x of
    B + x, so the result equals the per-member shifted OR bit for bit.
    """
    if a_bits == 0 or b_bits == 0:
        return 0
    if a_bits.bit_count() > b_bits.bit_count():
        a_bits, b_bits = b_bits, a_bits
    edges = bit_positions(a_bits ^ (a_bits << 1))
    # an empty run extends no progression, so it closes the last one
    edges += (n, n)
    runs = iter(edges)
    first = last = next(runs)
    length = next(runs) - first
    gap = count = 1
    acc = 0
    for start, stop in zip(runs, runs):
        size = stop - start
        if size == length and (count == 1 or start - last == gap):
            gap = start - last
            last = start
            count += 1
            continue
        spread = b_bits
        width = 1
        while width < length:
            shift = width if 2 * width <= length else length - width
            spread |= spread << shift
            width += shift
        if count > 1:
            width = 1
            while width < count:
                shift = width if 2 * width <= count else count - width
                spread |= spread << shift * gap
                width += shift
        acc |= spread << first
        first = last = start
        length = size
        count = 1
    return (acc | acc >> n) & ((1 << n) - 1)


def _negate_bits(bits: int, n: int) -> int:
    # the mirror puts p at n - 1 - p; rotating left by one lands it on -p mod n
    return rotate(mirror(bits, n), 1, n)


def interval(n: int, a: int, b: int) -> CyclicSet:
    """The set {a, a+1, ..., b} reduced mod n.

    Endpoints are arbitrary integers with a <= b; the length b - a + 1 must
    be strictly less than n (a wrap-around all the way to a full group is
    almost always a caller bug, so it is refused).
    """
    _require_modulus(n)
    if a > b:
        raise DomainError(f"interval endpoints out of order: [{a}, {b}]")
    length = b - a + 1
    if length >= n:
        raise IntervalCoversGroupError(
            f"interval [{a}, {b}] has length {length} >= n = {n}"
        )
    return CyclicSet(n, rotate((1 << length) - 1, a % n, n))


def sumset(a: CyclicSet, b: CyclicSet) -> CyclicSet:
    """A + B = {x + y mod n : x in A, y in B}."""
    _require_same_modulus(a, b)
    return CyclicSet(a.modulus, _sumset_bits(a.bits, b.bits, a.modulus))


def negate(a: CyclicSet) -> CyclicSet:
    """-A = {-x mod n : x in A}."""
    return CyclicSet(a.modulus, _negate_bits(a.bits, a.modulus))


def dilate(a: CyclicSet, d: int) -> CyclicSet:
    """d * A = {d * x mod n : x in A}; d must be a unit mod n."""
    n = a.modulus
    d %= n
    if math.gcd(d, n) != 1:
        raise NotAUnitError(f"{d} is not a unit mod {n}")
    return CyclicSet(n, bits_from_positions(n, (d * x % n for x in bit_positions(a.bits))))


def is_symmetric(a: CyclicSet) -> bool:
    """A = -A."""
    return a.bits == _negate_bits(a.bits, a.modulus)


def is_sum_free(a: CyclicSet) -> bool:
    """A contains no x, y, z (repetition allowed) with x + y = z."""
    return _sumset_bits(a.bits, a.bits, a.modulus) & a.bits == 0


def is_complete(a: CyclicSet) -> bool:
    """Every element of Z_n lies in A or in A + A."""
    n = a.modulus
    ss = _sumset_bits(a.bits, a.bits, n)
    return (a.bits | ss) == (1 << n) - 1


def classify(a: CyclicSet) -> SetProperties:
    """All three predicates in one pass (one sumset computation)."""
    n = a.modulus
    ss = _sumset_bits(a.bits, a.bits, n)
    return SetProperties(
        symmetric=a.bits == _negate_bits(a.bits, n),
        sum_free=ss & a.bits == 0,
        complete=(a.bits | ss) == (1 << n) - 1,
        size=a.bits.bit_count(),
    )


def units(n: int) -> List[int]:
    """Residues that are invertible mod n (for n = 1 this is [0])."""
    _require_modulus(n)
    return [u for u in range(n) if math.gcd(u, n) == 1]


def set_to_json(a: CyclicSet) -> dict:
    """Wire encoding: {"n": modulus, "elements": sorted members}."""
    return {"n": a.modulus, "elements": a.elements()}


def set_from_json(obj: dict) -> CyclicSet:
    """Decode and validate the wire encoding produced by set_to_json."""
    if not isinstance(obj, dict) or "n" not in obj or "elements" not in obj:
        raise DomainError("set JSON must be an object with 'n' and 'elements'")
    n = obj["n"]
    elements = obj["elements"]
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise DomainError(f"'n' must be a positive integer, got {n!r}")
    _require_modulus(n)
    if not isinstance(elements, list):
        raise DomainError("'elements' must be a list of integers")
    # one pass in C over types and the range; the loop runs only to name
    # the first bad element (or to accept int subclasses other than bool)
    if elements and (
        set(map(type, elements)) != {int} or min(elements) < 0 or max(elements) >= n
    ):
        for x in elements:
            if not isinstance(x, int) or isinstance(x, bool) or not 0 <= x < n:
                raise DomainError(f"element {x!r} outside [0, {n})")
    return CyclicSet(n, bits_from_positions(n, elements))
