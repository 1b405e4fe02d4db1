"""Exact set algebra over the cyclic group Z_n.

A set is an immutable bit-vector: bit ``i`` of ``bits`` is set iff ``i`` is
a member.  All arithmetic is exact integer arithmetic; sumsets are computed
by shifted-OR over the smaller operand, which agrees with the naive double
loop by construction (and is cross-checked against it in the tests).

Everything here is a pure function of its arguments, so values can be shared
freely between threads or processes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator, List, Optional

from ._bits import bit_positions, bits_from_positions
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
    "sumset_power",
    "negate",
    "dilate",
    "is_symmetric",
    "is_sum_free",
    "is_complete",
    "classify",
    "half_range_sum_free",
    "half_range_complete",
    "units",
    "dilation_orbit",
    "canonical_dilation_class",
    "set_to_json",
    "set_from_json",
]


@dataclass(frozen=True)
class CyclicSet:
    """A subset of Z_n as a fixed-modulus bit-vector."""

    modulus: int
    bits: int

    def __post_init__(self):
        if self.modulus < 1:
            raise DomainError(f"modulus must be positive, got {self.modulus}")
        if not 0 <= self.bits < (1 << self.modulus):
            raise DomainError(f"bit-vector out of range for modulus {self.modulus}")

    @classmethod
    def empty(cls, n: int) -> "CyclicSet":
        return cls(n, 0)

    @classmethod
    def full(cls, n: int) -> "CyclicSet":
        return cls(n, (1 << n) - 1)

    @classmethod
    def from_elements(cls, n: int, elements: Iterable[int]) -> "CyclicSet":
        """Build from any iterable of integers, reduced mod n."""
        if n < 1:
            raise DomainError(f"modulus must be positive, got {n}")
        return cls(n, bits_from_positions(n, (x % n for x in elements)))

    @property
    def size(self) -> int:
        return self.bits.bit_count()

    def elements(self) -> List[int]:
        """Members as a sorted list of canonical representatives in [0, n)."""
        return bit_positions(self.bits)

    def complement(self) -> "CyclicSet":
        return CyclicSet(self.modulus, self.bits ^ ((1 << self.modulus) - 1))

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

    def issubset(self, other: "CyclicSet") -> bool:
        _require_same_modulus(self, other)
        return self.bits & ~other.bits == 0

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
    """Bit-vector of {x + y : x in A, y in B} mod n via shifted OR."""
    if a_bits == 0 or b_bits == 0:
        return 0
    if a_bits.bit_count() > b_bits.bit_count():
        a_bits, b_bits = b_bits, a_bits
    acc = 0
    for x in bit_positions(a_bits):
        if x:
            # wrapped rotation of B by x; overflow re-enters via the right shift
            acc |= (b_bits << x) | (b_bits >> (n - x))
        else:
            acc |= b_bits
    return acc & ((1 << n) - 1)


def _mirror_bits(bits: int, n: int) -> int:
    """Bit p moves to bit n - 1 - p (the membership string reversed)."""
    return int(format(bits, f"0{n}b")[::-1], 2)


def _negate_bits(bits: int, n: int) -> int:
    # the mirror puts p at n - 1 - p; rotating left by one lands it on -p mod n
    mirrored = _mirror_bits(bits, n)
    return ((mirrored << 1) | (mirrored >> (n - 1))) & ((1 << n) - 1)


def interval(n: int, a: int, b: int) -> CyclicSet:
    """The set {a, a+1, ..., b} reduced mod n.

    Endpoints are arbitrary integers with a <= b; the length b - a + 1 must
    be strictly less than n (a wrap-around all the way to a full group is
    almost always a caller bug, so it is refused; use CyclicSet.full).
    """
    if n < 1:
        raise DomainError(f"modulus must be positive, got {n}")
    if a > b:
        raise DomainError(f"interval endpoints out of order: [{a}, {b}]")
    length = b - a + 1
    if length >= n:
        raise IntervalCoversGroupError(
            f"interval [{a}, {b}] has length {length} >= n = {n}; "
            "use CyclicSet.full(n) for the whole group"
        )
    lo = a % n
    if lo + length <= n:
        bits = ((1 << length) - 1) << lo
    else:
        head = n - lo
        bits = (((1 << head) - 1) << lo) | ((1 << (length - head)) - 1)
    return CyclicSet(n, bits)


def sumset(a: CyclicSet, b: CyclicSet) -> CyclicSet:
    """A + B = {x + y mod n : x in A, y in B}."""
    _require_same_modulus(a, b)
    return CyclicSet(a.modulus, _sumset_bits(a.bits, b.bits, a.modulus))


def sumset_power(a: CyclicSet, k: int) -> CyclicSet:
    """The k-fold sumset A + A + ... + A, computed by doubling."""
    if k < 1:
        raise DomainError(f"fold count must be >= 1, got {k}")
    result: Optional[int] = None
    base = a.bits
    n = a.modulus
    while k:
        if k & 1:
            result = base if result is None else _sumset_bits(result, base, n)
        k >>= 1
        if k:
            base = _sumset_bits(base, base, n)
    assert result is not None
    return CyclicSet(n, result)


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


def _require_half_cover(a: CyclicSet, g1: CyclicSet) -> None:
    _require_same_modulus(a, g1)
    if not is_symmetric(a):
        raise DomainError("half-range predicates require a symmetric set")
    n = g1.modulus
    if g1.bits | _negate_bits(g1.bits, n) != (1 << n) - 1:
        raise DomainError("G1 together with -G1 must cover the whole group")


def half_range_sum_free(a: CyclicSet, g1: CyclicSet) -> bool:
    """Sum-freeness via sums inside G1 only.

    For symmetric A and any G1 with G1 u -G1 = Z_n, checking that no two
    elements of G1 n A sum into A is equivalent to full sum-freeness.
    """
    _require_half_cover(a, g1)
    n = a.modulus
    half = a.bits & g1.bits
    return _sumset_bits(half, half, n) & a.bits == 0


def half_range_complete(a: CyclicSet, g1: CyclicSet) -> bool:
    """Completeness via coverage of G1 only.

    For symmetric A and any G1 with G1 u -G1 = Z_n, covering G1 \\ A by
    A + A is equivalent to covering all of Z_n \\ A.
    """
    _require_half_cover(a, g1)
    n = a.modulus
    need = g1.bits & ~a.bits
    return need & ~_sumset_bits(a.bits, a.bits, n) == 0


def units(n: int) -> List[int]:
    """Residues that are invertible mod n (for n = 1 this is [0])."""
    if n < 1:
        raise DomainError(f"modulus must be positive, got {n}")
    return [u for u in range(n) if math.gcd(u, n) == 1]


def dilation_orbit(a: CyclicSet) -> List[CyclicSet]:
    """Distinct dilations u * A over all units u, sorted by bit-vector."""
    seen = {dilate(a, u).bits for u in units(a.modulus)}
    return [CyclicSet(a.modulus, b) for b in sorted(seen)]


def canonical_dilation_class(a: CyclicSet) -> CyclicSet:
    """Canonical representative of {u * A : u a unit}.

    The representative is the orbit member whose membership bit-string,
    read from index 0 upward, is lexicographically least.  Any total order
    would do; this one is reproducible and cheap.
    """
    n = a.modulus
    best = None
    best_key = None
    for u in units(n):
        cand = dilate(a, u).bits
        # lexicographic order on the membership string read from index 0
        # upward is the numeric order of the mirrored mask
        key = _mirror_bits(cand, n)
        if best_key is None or key < best_key:
            best, best_key = cand, key
    assert best is not None
    return CyclicSet(n, best)


def set_to_json(a: CyclicSet) -> dict:
    """Wire encoding: {"n": modulus, "elements": sorted members}."""
    return {"n": a.modulus, "elements": a.elements()}


def set_from_json(obj: dict) -> CyclicSet:
    """Decode and validate the wire encoding produced by set_to_json."""
    if not isinstance(obj, dict) or "n" not in obj or "elements" not in obj:
        raise DomainError("set JSON must be an object with 'n' and 'elements'")
    n = obj["n"]
    elements = obj["elements"]
    if not isinstance(n, int) or n < 1:
        raise DomainError(f"'n' must be a positive integer, got {n!r}")
    if not isinstance(elements, list):
        raise DomainError("'elements' must be a list of integers")
    for x in elements:
        if not isinstance(x, int) or isinstance(x, bool) or not 0 <= x < n:
            raise DomainError(f"element {x!r} outside [0, {n})")
    return CyclicSet(n, bits_from_positions(n, elements))
