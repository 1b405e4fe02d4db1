"""t-special subsets of [0, 2t - 1]: predicate, enumeration, families, counts.

A size-t subset T of [0, 2t - 1] is *t-special* when 2t - 1 is not a sum of
three members (repetition allowed) and [0, 2t - 1 + min T] \\ (2t - 1 - T)
is covered by T + T.  These are exactly the offset windows that make the
central-interval construction symmetric, complete and sum-free in the
proven parameter range.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb
from typing import Iterable, Iterator, List, Optional, Tuple

from ._parallel import require_workers, run_sharded
from ._primes import is_prime
from .errors import BudgetExceededError, DomainError, ParameterError
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


def _sized_masks(k: int, width: int) -> Iterator[int]:
    """All width-bit masks with exactly k bits, ascending (Gosper's hack)."""
    if k == 0:
        yield 0
        return
    if k > width:
        return
    m = (1 << k) - 1
    top = m << (width - k)
    while True:
        yield m
        if m == top:
            return
        c = m & -m
        r = m + c
        m = r | (((m ^ r) >> 2) // c)


def _enumerate_shard(t: int, high_bit: int) -> List[int]:
    """Special masks whose highest set bit is exactly high_bit, ascending."""
    out = []
    top = 1 << high_bit
    for sub in _sized_masks(t - 1, high_bit):
        mask = top | sub
        if _is_special_mask(mask, t):
            out.append(mask)
    return out


def enumerate_special(
    t: int,
    *,
    budget: Optional[int] = None,
    workers: int = 1,
) -> SpecialEnumeration:
    """Stream all size-t candidates and keep the t-special ones.

    Only size-t subsets are generated; the triple-sum condition is checked
    before the coverage condition.  Cost is C(2t, t) candidates, refused
    when it exceeds the budget.
    """
    require_workers(workers)
    if t < 1:
        raise ParameterError(f"t must be >= 1, got {t}")
    cost = comb(2 * t, t)
    limit = DEFAULT_ENUM_BUDGET if budget is None else budget
    if cost > limit:
        raise BudgetExceededError(
            f"enumeration for t = {t} needs {cost} candidates, budget is {limit}",
            required=cost,
            limit=limit,
        )
    # masks with highest bit h sort strictly below those with highest bit h+1,
    # so per-shard ascending order concatenates to global ascending order
    shards = [(t, h) for h in range(t - 1, 2 * t)]
    masks: List[int] = []
    for shard_masks in run_sharded(_enumerate_shard, shards, workers):
        masks.extend(shard_masks)
    return SpecialEnumeration(t, tuple(TCandidate(t, m) for m in masks))


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
    if p % 3 == 1:
        k = (p - 1) // 3
        t = 3 * r + 1
        size = k - 2 * r
    else:
        k = (p - 2) // 3
        t = 3 * r
        size = k - 2 * r + 1
    g = enumerate_special(t, budget=budget).g
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
