"""The central-interval construction S_T and its integer-side conditions.

For a modulus n and target size s with t = (n - 3s + 1) / 2 a positive
integer, every subset T of [0, 2t - 1] yields the symmetric set

    S_T = [n - 2s + 1, 2s - 1]  u  (s + T)  u  -(s + T)   (mod n).

Whether S_T is sum-free or complete reduces to plain integer conditions on
T; this module provides the construction and the two conditions.  It holds
the one t-special test (``_is_special_mask``: size t plus both conditions),
which ``special_sets`` uses too, and the one bit layout of S_T
(``_st_bits``), which ``build_st`` and the equivalence sweep in
``search_oracle`` share.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Tuple

from ._bits import bit_positions, mirror
from .errors import ConstructionError, DomainError, ParameterError
from .zn_core import CyclicSet, interval

__all__ = [
    "STParameters",
    "TCandidate",
    "build_st",
    "st_sum_free_condition",
    "st_completeness_condition",
]


@dataclass(frozen=True)
class STParameters:
    """A (modulus, size) pair for which the offset window is well-defined."""

    n: int
    s: int

    def __post_init__(self):
        if self.n < 1 or self.s < 1:
            raise ParameterError(f"n and s must be positive, got n={self.n}, s={self.s}")
        if (self.n - 3 * self.s + 1) % 2 != 0:
            raise ParameterError(
                f"n - 3s + 1 = {self.n - 3 * self.s + 1} is odd; no integer offset window"
            )
        if self.n - 3 * self.s + 1 <= 0:
            raise ParameterError(
                f"n - 3s + 1 = {self.n - 3 * self.s + 1} <= 0; offset window is empty"
            )

    @property
    def t(self) -> int:
        return (self.n - 3 * self.s + 1) // 2

    @property
    def definition_valid(self) -> bool:
        """The construction itself is well-formed (n <= 4s - 3)."""
        return self.n <= 4 * self.s - 3

    @property
    def theorem_valid(self) -> bool:
        """The completeness reduction applies (n <= 7s/2 - 1)."""
        return 2 * self.n <= 7 * self.s - 2

    def require_definition_valid(self) -> None:
        if not self.definition_valid:
            raise ParameterError(
                f"n = {self.n} > 4s - 3 = {4 * self.s - 3}; construction undefined"
            )


@dataclass(frozen=True)
class TCandidate:
    """A plain integer subset of [0, 2t - 1], stored as a 2t-bit mask."""

    t: int
    mask: int

    def __post_init__(self):
        if self.t < 1:
            raise ParameterError(f"t must be >= 1, got {self.t}")
        if not 0 <= self.mask < (1 << (2 * self.t)):
            raise ParameterError(f"mask {self.mask} outside [0, 2t - 1] for t = {self.t}")

    @classmethod
    def from_members(cls, t: int, members: Iterable[int]) -> "TCandidate":
        mask = 0
        for x in members:
            if not 0 <= x < 2 * t:
                raise ParameterError(f"member {x} outside [0, {2 * t - 1}]")
            mask |= 1 << x
        return cls(t, mask)

    @property
    def members(self) -> Tuple[int, ...]:
        return tuple(bit_positions(self.mask))

    @property
    def size(self) -> int:
        return self.mask.bit_count()


def _self_sumset_mask(mask: int) -> int:
    """T + T over the integers (repetition allowed), as a bit mask."""
    acc = 0
    m = mask
    while m:
        lsb = m & -m
        acc |= mask << (lsb.bit_length() - 1)
        m ^= lsb
    return acc


def _sum_free_condition_mask(mask: int, t: int) -> bool:
    # 2t - 1 in T+T+T  <=>  (T+T) meets the mirror of T within [0, 2t-1]
    return _self_sumset_mask(mask) & mirror(mask, 2 * t) == 0


def _completeness_condition_mask(mask: int, t: int) -> bool:
    low = (mask & -mask).bit_length() - 1
    required = (1 << (2 * t + low)) - 1
    mirrored = mirror(mask, 2 * t)
    return required & ~mirrored & ~_self_sumset_mask(mask) == 0


def st_sum_free_condition(T: TCandidate) -> bool:
    """True iff 2t - 1 is not a sum of three members (repetition allowed)."""
    return _sum_free_condition_mask(T.mask, T.t)


def st_completeness_condition(T: TCandidate) -> bool:
    """True iff [0, 2t - 1 + min T] minus (2t - 1 - T) is covered by T + T.

    Undefined for empty T, which has no minimum.
    """
    if T.mask == 0:
        raise DomainError("completeness condition is undefined for an empty candidate")
    return _completeness_condition_mask(T.mask, T.t)


def _st_bits(central: int, mask: int, t: int, s: int) -> int:
    """Bits of S_T from the central interval's bits and T's 2t-bit mask.

    s + T needs no wrap: s + (2t - 1) = n - 2s < n.  Its negation
    -(s + i) = n - s - i = 2s + (2t - 1 - i) is T mirrored within 2t bits
    and shifted up by 2s, again without a wrap.
    """
    return central | mask << s | mirror(mask, 2 * t) << 2 * s


def build_st(params: STParameters, T: TCandidate) -> CyclicSet:
    """Assemble S_T = central interval u (s + T) u -(s + T) in Z_n."""
    if T.t != params.t:
        raise ParameterError(f"candidate has t = {T.t}, parameters have t = {params.t}")
    params.require_definition_valid()
    n, s = params.n, params.s
    central = interval(n, n - 2 * s + 1, 2 * s - 1)
    result = CyclicSet(n, _st_bits(central.bits, T.mask, T.t, s))
    # the three pieces are pairwise disjoint whenever the parameters are valid
    if len(result) != 4 * s - n - 1 + 2 * T.size:
        raise ConstructionError(f"pieces of S_T overlap at (n, s) = ({n}, {s})")
    return result


def _is_special_mask(mask: int, t: int) -> bool:
    """The t-special test: size t, the sum-free and the completeness condition."""
    return (
        mask.bit_count() == t
        and _sum_free_condition_mask(mask, t)
        and _completeness_condition_mask(mask, t)
    )
