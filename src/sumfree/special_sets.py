"""t-special subsets of [0, 2t - 1]: predicate, enumeration, families, counts.

A size-t subset T of [0, 2t - 1] is *t-special* when 2t - 1 is not a sum of
three members (repetition allowed) and [0, 2t - 1 + min T] \\ (2t - 1 - T)
is covered by T + T.  These are exactly the offset windows that make the
central-interval construction symmetric, complete and sum-free in the
proven parameter range.

``enumerate_special`` finds them by one depth-first search, in-process,
over the positions 0..2t-1 that carries T, T + T and the mirror of T
(2t - 1 - T) as bit masks.  2t - 1 is a sum of three members exactly when
T + T meets the mirror, and the triple-sum condition holds for every
subset of a set that satisfies it, so a branch is cut once T + T meets
the mirror.  Once the positions below x are decided, T + T is final
below x, so a branch is also cut once some y < x is outside T + T while
2t - 1 - y is decided out, and once too few positions remain to reach
size t.  Every size-t leaf gets the one t-special test,
``st_family._is_special_mask``, which reads both conditions from one
T + T.  The budget is still the projected count
C(2t, t) of size-t candidates, although the search visits far fewer
nodes.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb
from typing import Iterable, Iterator, List, Optional, Tuple

from ._primes import is_prime
from .errors import DomainError, ParameterError, require_budget
from .st_family import TCandidate, _is_special_mask

__all__ = [
    "SpecialEnumeration",
    "PredictedCount",
    "is_t_special",
    "enumerate_special",
    "lower_bound_index_range",
    "lower_bound_family",
    "iter_lower_bound_family",
    "predicted_scsf_count",
    "DEFAULT_ENUM_BUDGET",
]

# C(28, 14): the default admits t <= 14
DEFAULT_ENUM_BUDGET = comb(28, 14)


@dataclass(frozen=True)
class SpecialEnumeration:
    """All t-special sets for one t, in ascending bit-mask order."""

    t: int
    sets: Tuple[TCandidate, ...]

    @property
    def g(self) -> int:
        return len(self.sets)

    def as_lists(self) -> List[List[int]]:
        return [list(T.members) for T in self.sets]


def is_t_special(T: TCandidate) -> bool:
    """Size t, no triple summing to 2t - 1, and the coverage condition.

    Conditions are evaluated in that order; the coverage condition is only
    consulted for nonempty sets, so the predicate is total.
    """
    return _is_special_mask(T.mask, T.t)


def _special_dfs(t: int) -> List[int]:
    """The t-special windows, by a stack of nodes (x, |T|, T, T + T, M)
    whose positions below x are decided.  M = 2t - 1 - T is the mirror of
    T within 2t bits, so the node carries T, T + T and the mirror of T,
    and the node taking x is cut once T + T meets the mirror.

    A popped node leaves x out and goes on to x + 1 in place; the node
    that takes x waits on the stack.
    """
    out: List[int] = []
    stack = [(0, 0, 0, 0, 0)]
    while stack:
        x, size, T, T2, M = stack.pop()
        if size == t:
            if _is_special_mask(T, t):
                out.append(T)
            continue
        while 2 * t - x >= t - size:
            # a sum below x has both members below x, so T + T is final
            # there; a y < x outside T + T needs 2t - 1 - y in T, and if
            # that position is already decided out, no completion covers y.
            # Bits 2t - x .. 2t - 1 of M mirror the decided positions.
            low = (1 << x) - 1
            if low & ~T2 & ~M & low << (2 * t - x):
                break
            U2 = T2 | T << x | 1 << 2 * x
            UM = M | 1 << (2 * t - 1 - x)
            # T + T and the mirror only grow, so once they meet no
            # superset is special
            if not U2 & UM:
                stack.append((x + 1, size + 1, T | 1 << x, U2, UM))
            x += 1
    return out


def enumerate_special(t: int, *, budget: Optional[int] = None) -> SpecialEnumeration:
    """All t-special sets, by a pruned depth-first search over [0, 2t - 1].

    Each node decides whether one position x (0 first) joins T and carries
    T, T + T and the mirror of T as bit masks.  A branch is cut once T + T
    meets the mirror, that is once 2t - 1 is a sum of three members (every
    superset then fails the triple-sum condition too), once some y below x
    is neither in T + T nor mirrored by a position that can still join T
    (the coverage condition then fails for every completion), or once too
    few positions remain to reach size t.  Each size-t leaf gets the full
    t-special test, so the search only skips branches and never accepts a
    set by itself.

    The budget is the projected C(2t, t) size-t candidates, refused up
    front when it exceeds the limit, although the search visits far fewer.
    """
    if t < 1:
        raise ParameterError(f"t must be >= 1, got {t}")
    require_budget(
        f"enumeration for t = {t} needs",
        "candidates",
        comb(2 * t, t),
        budget,
        DEFAULT_ENUM_BUDGET,
    )
    masks = _special_dfs(t)
    return SpecialEnumeration(t, tuple(TCandidate(t, m) for m in sorted(masks)))


def lower_bound_index_range(t: int) -> range:
    """The free index range [ceil(2t/3), t - 1] of the doubling family."""
    if t < 1:
        raise ParameterError(f"t must be >= 1, got {t}")
    return range(-(-2 * t // 3), t)


def lower_bound_family(t: int, free_indices: Iterable[int]) -> TCandidate:
    """The t-special set T_I for I a subset of [ceil(2t/3), t - 1].

    T_I keeps 0 and the chosen indices, mirrors every unchosen index i of
    [1, t - 1] to 2t - 1 - i, and is t-special for every choice; distinct
    choices give distinct sets, which fuels the 2^floor(t/3) lower bound.
    """
    allowed = lower_bound_index_range(t)
    chosen = frozenset(free_indices)
    for i in chosen:
        if i not in allowed:
            raise DomainError(
                f"index {i} outside [{allowed.start}, {allowed.stop - 1}]"
            )
    members = {0} | set(chosen)
    members.update(2 * t - 1 - i for i in allowed if i not in chosen)
    members.update(range(2 * t - allowed.start, 2 * t - 1))
    return TCandidate.from_members(t, members)


def iter_lower_bound_family(t: int) -> Iterator[TCandidate]:
    """All 2^floor(t/3) members of the doubling family for this t."""
    allowed = list(lower_bound_index_range(t))
    for mask in range(1 << len(allowed)):
        yield lower_bound_family(
            t, (allowed[i] for i in range(len(allowed)) if mask >> i & 1)
        )


@dataclass(frozen=True)
class PredictedCount:
    """Asymptotic count of symmetric complete sum-free sets of one size in Z_p.

    The count is an asymptotic statement about sufficiently large p; the
    flag is always set and callers must not treat the number as exact.
    """

    p: int
    r: int
    k: int
    t: int
    g: int
    size: int
    count: int
    asymptotic_claim: bool
    vacuous: bool


def predicted_scsf_count(
    p: int,
    r: int,
    *,
    budget: Optional[int] = None,
) -> PredictedCount:
    """Predicted number of symmetric complete sum-free sets of the r-th size.

    For p = 3k + 1 the size k - 2r sets are counted by (p - 1)/2 * g(3r + 1);
    for p = 3k + 2 the size k - 2r + 1 sets by (p - 1)/2 * g(3r).  Sizes
    that are odd or non-positive cannot occur for symmetric sets in Z_p with
    p an odd prime, and are flagged vacuous.
    """
    if not is_prime(p):
        raise DomainError(f"p = {p} is not prime")
    if p % 3 == 0:
        raise DomainError("p must be 1 or 2 mod 3")
    if r < 1:
        raise ParameterError(f"r must be >= 1, got {r}")
    t = 3 * r + 1 if p % 3 == 1 else 3 * r
    return _predicted_count(p, enumerate_special(t, budget=budget))


def _predicted_count(p: int, specials: SpecialEnumeration) -> Optional[PredictedCount]:
    """The counting formula at p for the size class whose window is
    specials.t, or None when that t is the window of no size class of p."""
    t = specials.t
    # p = 3k + 1 has its windows at t = 3r + 1, p = 3k + 2 at t = 3r
    k, r = p // 3, t // 3
    if p % 3 == 1 and t % 3 == 1 and r >= 1:
        size = k - 2 * r
    elif p % 3 == 2 and t % 3 == 0:
        size = k - 2 * r + 1
    else:
        return None
    g = specials.g
    return PredictedCount(
        p=p,
        r=r,
        k=k,
        t=t,
        g=g,
        size=size,
        count=(p - 1) // 2 * g,
        asymptotic_claim=True,
        vacuous=size <= 0 or size % 2 == 1,
    )
