"""Symmetric complete sum-free sets built from an interval plus a progression.

For parameters (t, d, k) and variant offset a, the modulus is n = 4dk+6t-a
and the set is (A u -A) u (B u -B) u C with A a short interval, B a d-step
arithmetic progression left of the centre, and C a symmetric central
interval.  One modulus admits many parameter choices; the solver picks a
base choice from n alone and a ladder of further rungs whose sizes form an
arithmetic progression, which is what the density corollaries run on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import List, Tuple

from .errors import ConstructionError, DomainError, ParameterError
from .zn_core import CyclicSet, classify, interval, negate

__all__ = [
    "IntervalAPParameters",
    "SizeLadder",
    "N_MIN",
    "component_sets",
    "build_small",
    "solve_parameters",
    "size_ladder",
    "density_choice",
]

# Least n for which solve_parameters succeeds on all of [n, n + 1000],
# found by sweep (see tests); below it some moduli still work, some don't.
N_MIN = 686


@dataclass(frozen=True)
class IntervalAPParameters:
    """One (t, d, k, a) cell of the construction family."""

    t: int
    d: int
    k: int
    a: int

    def __post_init__(self):
        if self.t < 1:
            raise ParameterError(f"t must be >= 1, got {self.t}")
        if self.d < 2:
            raise ParameterError(f"d must be >= 2, got {self.d}")
        if self.k < 4:
            raise ParameterError(f"k must be >= 4, got {self.k}")
        if self.a not in (11, 14):
            raise ParameterError(f"variant offset must be 11 or 14, got {self.a}")

    @property
    def n(self) -> int:
        return 4 * self.d * self.k + 6 * self.t - self.a

    @property
    def c_size(self) -> int:
        # the central interval has 2t+1 elements when n is even, 2t+2 when odd
        return 2 * self.t + 1 if self.a == 14 else 2 * self.t + 2

    @property
    def hypothesis_ok(self) -> bool:
        """The theorem's hypothesis |C| >= d."""
        return self.c_size >= self.d

    @property
    def size(self) -> int:
        return 2 * (self.d + self.k - 4) + self.c_size


def _half_even(value: int) -> int:
    """value / 2, refusing to round: oddness here means a parameter bug."""
    if value % 2:
        raise ConstructionError(f"expected an even intermediate, got {value}")
    return value // 2


def _progression_bits(terms: int, step: int) -> int:
    """The mask of {i * step : 0 <= i < terms}, terms >= 1.

    Each shift-OR doubles the terms held, up to the count asked for, so
    the mask takes O(log terms) big-integer shifts, not one per term.
    """
    spread, held = 1, 1
    while held < terms:
        shift = min(held, terms - held)
        spread |= spread << shift * step
        held += shift
    return spread


def component_sets(
    params: IntervalAPParameters,
) -> Tuple[CyclicSet, CyclicSet, CyclicSet]:
    """The pieces (A, B, C) of the construction, as subsets of Z_n.

    A = [a0, a0+d-2] with a0 = (ceil(n/2)+t+1)/2, B the d-step progression
    of k-3 terms starting at a0+2d-2, C the central interval of radius t.
    """
    n, t, d, k = params.n, params.t, params.d, params.k
    a0 = _half_even((n + 1) // 2 + t + 1)
    A = interval(n, a0, a0 + d - 2)
    b_start = a0 + 2 * d - 2
    # the last element of B must land exactly 2d-2 short of C's left end,
    # so B lies inside [0, n) and needs no reduction mod n
    if b_start + (k - 4) * d != n // 2 - t - 2 * d + 2:
        raise ConstructionError(f"B does not end 2d-2 short of C for {params}")
    B = CyclicSet(n, _progression_bits(k - 3, d) << b_start)
    C = interval(n, n // 2 - t, (n + 1) // 2 + t)
    return A, B, C


def build_small(params: IntervalAPParameters, *, checked: bool = True) -> CyclicSet:
    """Assemble (A u -A) u (B u -B) u C.

    Requires the hypothesis |C| >= d.  In checked mode the result is
    re-verified against the definition predicates, so a constructed set
    can never silently outrun the oracle.
    """
    if not params.hypothesis_ok:
        raise ConstructionError(
            f"hypothesis |C| >= d fails: |C| = {params.c_size} < d = {params.d}"
        )
    A, B, C = component_sets(params)
    half = A | B
    result = half | negate(half) | C
    # |A|, |-A|, |B|, |-B|, |C| sum to params.size: the union is smaller iff two overlap
    if result.size != params.size:
        raise ConstructionError(
            f"construction pieces overlap for {params}: built {result.size}"
            f" elements, the formula gives {params.size}"
        )
    if checked:
        props = classify(result)
        if not (props.symmetric and props.sum_free and props.complete):
            raise ConstructionError(
                f"constructed set fails verification for {params}: {props}"
            )
    return result


def solve_parameters(n: int) -> IntervalAPParameters:
    """The base cell (t0, d0, k0, a) with n = 4*d0*k0 + 6*t0 - a.

    d0 is the unique of floor(sqrt(n)), -1, -2 that is 1 mod 3; a follows
    the parity of n; t0 and k0 fall out of division with remainder.  Raises
    when the result violates the construction's parameter bounds, which
    happens for scattered n below N_MIN and never at or above it.
    """
    if n < 1:
        raise ParameterError(f"modulus must be positive, got {n}")
    root = math.isqrt(n)
    candidates = [c for c in (root, root - 1, root - 2) if c % 3 == 1]
    if len(candidates) != 1:
        raise ConstructionError(f"no unique d0 = 1 mod 3 near sqrt({n}): {candidates}")
    d0 = candidates[0]
    a = 11 if n % 2 else 14
    m = _half_even(n + a)
    if d0 < 2:
        raise ParameterError(
            f"below construction threshold for n = {n}: d0 = {d0} < 2"
        )
    remainder = m % (2 * d0)
    multiples = [remainder + 2 * d0 * i for i in (1, 2, 3) if (remainder + 2 * d0 * i) % 3 == 0]
    if len(multiples) != 1:
        raise ConstructionError(f"no unique 3*t0 for n = {n}: {multiples}")
    t0 = multiples[0] // 3
    k0 = (m - 3 * t0) // (2 * d0)
    if m != 2 * d0 * k0 + 3 * t0:
        raise ConstructionError(f"m = {m} is not 2*d0*k0 + 3*t0 for n = {n}")
    if k0 < 4:
        raise ParameterError(
            f"below construction threshold for n = {n}: k0 = {k0} < 4"
        )
    solved = IntervalAPParameters(t=t0, d=d0, k=k0, a=a)
    # the remaining bounds hold by construction; keep them loud
    if not (d0 <= 2 * t0 + 1 and 2 * d0 <= 3 * t0 <= 8 * d0 and solved.n == n):
        raise ConstructionError(f"{solved} breaks the parameter bounds for n = {n}")
    return solved


@dataclass(frozen=True)
class SizeLadder:
    """All rungs constructible at one n from the solved base parameters."""

    n: int
    rungs: Tuple[IntervalAPParameters, ...]

    @property
    def sizes(self) -> Tuple[int, ...]:
        return tuple(p.size for p in self.rungs)


def size_ladder(n: int) -> SizeLadder:
    """Rungs i = 0..floor((k0-4)/3) with k_i = k0-3i and t_i = t0+2*d0*i.

    Sizes form an arithmetic progression of difference 2(2*d0-3).
    """
    base = solve_parameters(n)
    rungs = tuple(
        replace(base, t=base.t + 2 * base.d * i, k=base.k - 3 * i)
        for i in range((base.k - 4) // 3 + 1)
    )
    for i, params in enumerate(rungs):
        if not (
            params.n == n
            and params.hypothesis_ok
            and params.size == base.size + i * 2 * (2 * base.d - 3)
        ):
            raise ConstructionError(f"rung {i} {params} is off the ladder at n = {n}")
    return SizeLadder(n, rungs)


# the refined scan tries every difference up to this; small d fills the
# high-density end in fine size steps, the ladder already covers the rest
_REFINE_D_MAX = 12


def _refined_candidates(n: int, target_size: float) -> List[IntervalAPParameters]:
    """Construction cells at this n with sizes near the target.

    For each small d, k is solved from the size formula and a window
    around it is kept when it yields integral t >= 1 and |C| >= d.
    """
    a = 11 if n % 2 else 14
    m2 = n + a
    shift = 18 if n % 2 else 21
    found = []
    for d in range(2, _REFINE_D_MAX + 1):
        k_ideal = (m2 + 6 * d - shift - 3 * target_size) / (4 * d - 6)
        for k in range(max(4, math.floor(k_ideal) - 4), math.floor(k_ideal) + 5):
            rest = m2 - 4 * d * k
            if rest < 6 or rest % 6:
                continue
            params = IntervalAPParameters(t=rest // 6, d=d, k=k, a=a)
            if params.hypothesis_ok:
                if params.n != n:
                    raise ConstructionError(f"{params} has n = {params.n}, not {n}")
                found.append(params)
    return found


def density_choice(
    n: int, alpha: float, *, refine: bool = True
) -> IntervalAPParameters:
    """The constructible cell whose density is nearest alpha.

    Candidates are the ladder rungs, plus (unless refine is off) the
    small-d refinements that fill the high-density end in finer steps.
    Ties go to the smaller set.
    """
    if not 0 <= alpha <= 1 / 3 + 1e-12:
        raise DomainError(f"alpha must lie in [0, 1/3], got {alpha}")
    candidates = list(size_ladder(n).rungs)
    if refine:
        candidates.extend(_refined_candidates(n, alpha * n))
    return min(candidates, key=lambda p: (abs(p.size - alpha * n), p.size))
