"""Exhaustive ground truth for the constructions.

Catalogs of symmetric complete sum-free sets for small moduli, maximum
sum-free sets for small primes, evidence reports comparing catalogs
against the dilation closure of the central-interval construction, and
the S_T equivalence sweep, which compares the t-special windows with the
windows whose S_T the catalog search accepts.  The searches are
exhaustive, so the constructions are tested against them, never the
other way round.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Set, Tuple

from ._bits import bit_positions, mirror, rotate
from ._parallel import SHARD_BITS, require_workers, run_sharded
from ._primes import is_prime
from .errors import BudgetExceededError, ConstructionError, DomainError, ParameterError
from .special_sets import PredictedCount, _predicted_count, enumerate_special
from .st_family import STParameters, _st_bits, build_st
from .zn_core import CyclicSet, _sumset_bits, classify, dilate, interval, units

__all__ = [
    "Catalog",
    "MaxSumFreeCatalog",
    "DilationClass",
    "ProbeReport",
    "EquivalenceReport",
    "exhaustive_scsf",
    "exhaustive_max_sum_free",
    "characterization_probe",
    "verify_st_equivalence",
    "DEFAULT_SCSF_BUDGET",
    "DEFAULT_MAX_PRIME",
    "DEFAULT_EQUIV_BUDGET",
]

# 2^(n//2) symmetric candidates: n <= 44 by default
DEFAULT_SCSF_BUDGET = 1 << 22
DEFAULT_MAX_PRIME = 43
# 4**t windows; the default admits t <= 12
DEFAULT_EQUIV_BUDGET = 1 << 24


@dataclass(frozen=True)
class DilationClass:
    """One orbit {u * A : u a unit} of the unit-dilation action.

    The representative is the orbit member whose membership bit-string,
    read from index 0 upward, is lexicographically least: the member with
    the least mirrored mask.  Catalogs list their classes in increasing
    order of the representative's mask.
    """

    representative: CyclicSet
    orbit_size: int


def _dilation_orbit(a: CyclicSet) -> Set[int]:
    """Bit masks of {u * A : u a unit mod n}."""
    return {dilate(a, u).bits for u in units(a.modulus)}


def _group_into_classes(members: Tuple[CyclicSet, ...]) -> Tuple[DilationClass, ...]:
    """Split a catalog closed under unit dilation into its orbits.

    The first unclaimed member's orbit is built once and claimed whole, so
    each class costs one sweep over the units.  Every catalog built here is
    closed under dilation; an orbit member outside it is a search bug.
    """
    unclaimed = {member.bits for member in members}
    classes = []
    for member in members:
        if member.bits not in unclaimed:
            continue
        orbit = _dilation_orbit(member)
        if not orbit <= unclaimed:
            raise ConstructionError(
                f"catalog is not closed under unit dilation: {member} has "
                f"{len(orbit - unclaimed)} dilates outside it"
            )
        unclaimed -= orbit
        n = member.modulus
        rep = min(orbit, key=lambda bits: mirror(bits, n))
        classes.append(DilationClass(CyclicSet(n, rep), len(orbit)))
    return tuple(sorted(classes, key=lambda c: c.representative.bits))


@dataclass(frozen=True)
class Catalog:
    """Every symmetric complete sum-free subset of Z_n, in bit order."""

    n: int
    size_filter: Optional[int]
    members: Tuple[CyclicSet, ...]

    @property
    def classes(self) -> Tuple[DilationClass, ...]:
        """The members split into unit-dilation orbits, on every read."""
        return _group_into_classes(self.members)


@dataclass(frozen=True)
class MaxSumFreeCatalog:
    """Every maximum-size sum-free subset of Z_p, in bit order.

    Unlike Catalog, members need not be symmetric or complete; the class
    decomposition is still by unit dilation.
    """

    p: int
    max_size: int
    members: Tuple[CyclicSet, ...]

    @property
    def classes(self) -> Tuple[DilationClass, ...]:
        """The members split into unit-dilation orbits, on every read."""
        return _group_into_classes(self.members)


def _pair_orbits(n: int) -> List[int]:
    """Bit masks of the negation orbits {x, n-x}, smallest x first."""
    orbits = [(1 << x) | (1 << (n - x)) for x in range(1, (n + 1) // 2)]
    if n % 2 == 0 and n >= 2:
        orbits.append(1 << (n // 2))
    return orbits


def _scsf_dfs(
    n: int,
    orbits: List[int],
    suffix: List[int],
    index: int,
    s_bits: int,
    ss_bits: int,
    size_filter: Optional[int],
    out: List[int],
) -> None:
    if size_filter is not None:
        size = s_bits.bit_count()
        if size > size_filter or size + suffix[index] < size_filter:
            return
    if index == len(orbits):
        if s_bits | ss_bits == (1 << n) - 1:
            out.append(s_bits)
        return
    orbit = orbits[index]
    # skip this orbit
    _scsf_dfs(n, orbits, suffix, index + 1, s_bits, ss_bits, size_filter, out)
    # take it; S and S+S only grow, so a sum-free violation is permanent
    new_s = s_bits | orbit
    new_ss = ss_bits
    for x in _orbit_shifts(orbit, n):
        new_ss |= rotate(new_s, x, n)
    if new_s & new_ss == 0:
        _scsf_dfs(n, orbits, suffix, index + 1, new_s, new_ss, size_filter, out)


def _orbit_shifts(orbit: int, n: int) -> Tuple[int, ...]:
    x = (orbit & -orbit).bit_length() - 1
    return (x,) if orbit == 1 << x else (x, n - x)


def _scsf_shard(
    n: int,
    orbits: List[int],
    start: int,
    orbits_prefix_len: int,
    prefix_choice: int,
    size_filter: Optional[int],
) -> List[int]:
    """Search start plus subsets of the orbits, the first fixed by the choice bitmap.

    The catalog starts from the empty set over every negation orbit, the
    S_T equivalence sweep from the central interval over the window orbits.
    """
    suffix = [0] * (len(orbits) + 1)
    for i in range(len(orbits) - 1, -1, -1):
        suffix[i] = suffix[i + 1] + orbits[i].bit_count()
    s_bits, ss_bits = start, _sumset_bits(start, start, n)
    for i in range(orbits_prefix_len):
        if prefix_choice >> i & 1:
            s_bits |= orbits[i]
            for x in _orbit_shifts(orbits[i], n):
                ss_bits |= rotate(s_bits, x, n)
    # S and S + S only grow, so a sum-free violation here is permanent
    if s_bits & ss_bits:
        return []
    out: List[int] = []
    _scsf_dfs(n, orbits, suffix, orbits_prefix_len, s_bits, ss_bits, size_filter, out)
    return out


def _scsf_search(
    n: int, orbits: List[int], start: int, size_filter: Optional[int], workers: int
) -> List[int]:
    """Every leaf of the orbit search, sharded on the first SHARD_BITS orbits."""
    prefix = min(SHARD_BITS, len(orbits))
    shards = [(n, orbits, start, prefix, c, size_filter) for c in range(1 << prefix)]
    return [bits for part in run_sharded(_scsf_shard, shards, workers) for bits in part]


def exhaustive_scsf(
    n: int,
    size_filter: Optional[int] = None,
    *,
    budget: Optional[int] = None,
    workers: int = 1,
) -> Catalog:
    """Enumerate all symmetric complete sum-free subsets of Z_n.

    Candidates are subsets of the negation orbits (0 is never sum-free),
    searched depth-first with the partial sumset carried along; sum-free
    failures prune, completeness is checked at the leaves.  Each shard fixes
    the choice on the first (up to) SHARD_BITS orbits; one worker runs the
    shards in-process.
    """
    require_workers(workers)
    if n < 1:
        raise DomainError(f"modulus must be positive, got {n}")
    cost = 1 << (n // 2)
    limit = DEFAULT_SCSF_BUDGET if budget is None else budget
    if cost > limit:
        raise BudgetExceededError(
            f"exhaustive search at n = {n} means {cost} symmetric candidates, "
            f"budget is {limit}",
            required=cost,
            limit=limit,
        )
    found = _scsf_search(n, _pair_orbits(n), 0, size_filter, workers)
    members = tuple(CyclicSet(n, bits) for bits in sorted(found))
    for member in members:
        props = classify(member)
        if not (props.symmetric and props.sum_free and props.complete):
            raise ConstructionError(f"search returned a non-member {member}: {props}")
    return Catalog(n, size_filter, members)


def _max_sum_free_extend(
    p: int,
    inv2: int,
    s_bits: int,
    neg_bits: int,
    size: int,
    allowed: int,
    best: List[int],
    out: List[Tuple[int, int]],
) -> None:
    if size + allowed.bit_count() < best[0]:
        return
    if allowed == 0:
        # no element can join, so every maximum set shows up exactly here
        if size > best[0]:
            best[0] = size
        out.append((size, s_bits))
        return
    rest = allowed
    while rest:
        low = rest & -rest
        x = low.bit_length() - 1
        rest ^= low
        new_s = s_bits | low
        new_neg = neg_bits | (1 << (p - x))
        forbidden = (
            rotate(new_s, x, p)
            | rotate(new_s, p - x, p)
            | rotate(new_neg, x, p)
            | (1 << (inv2 * x % p))
        )
        # only explore y > x to the right; smaller y belong to earlier branches
        _max_sum_free_extend(
            p, inv2, new_s, new_neg, size + 1, rest & ~forbidden, best, out
        )
        if size + rest.bit_count() < best[0]:
            return


def exhaustive_max_sum_free(
    p: int, *, budget: Optional[int] = None
) -> MaxSumFreeCatalog:
    """All maximum-size sum-free subsets of Z_p, p an odd prime.

    Depth-first over elements in increasing order, carrying the mask of
    elements that can still individually join; cardinality against the best
    size found so far prunes.  The budget is the largest prime accepted.
    """
    limit = DEFAULT_MAX_PRIME if budget is None else budget
    if not is_prime(p) or p == 2:
        raise DomainError(f"p must be an odd prime, got {p}")
    if p > limit:
        raise BudgetExceededError(
            f"exhaustive maximum-sum-free search accepts p <= {limit}, got {p}",
            required=p,
            limit=limit,
        )
    inv2 = pow(2, -1, p)
    best = [0]
    leaves: List[Tuple[int, int]] = []
    _max_sum_free_extend(p, inv2, 0, 0, 0, ((1 << p) - 1) & ~1, best, leaves)
    max_size = best[0]
    members = tuple(
        CyclicSet(p, bits) for size, bits in sorted(leaves) if size == max_size
    )
    return MaxSumFreeCatalog(p, max_size, members)


@dataclass(frozen=True)
class ProbeReport:
    """Desk-scale evidence about the dilation characterization at one (p, s).

    Compares the exhaustive catalog of symmetric complete sum-free sets of
    size s against all unit dilations of the central-interval construction
    over special windows.  Mismatches are data, not failures: the theorems
    compared against are asymptotic in p.
    """

    p: int
    s: int
    t: Optional[int]
    definition_valid: bool
    theorem_valid: bool
    special_count: int
    catalog_count: int
    construction_count: int
    matched_count: int
    catalog_only: Tuple[CyclicSet, ...]
    construction_only: Tuple[CyclicSet, ...]
    predicted: Optional[PredictedCount]

    @property
    def exact_match(self) -> bool:
        return not self.catalog_only and not self.construction_only


def characterization_probe(
    p: int,
    s: int,
    *,
    budget: Optional[int] = None,
    workers: int = 1,
) -> ProbeReport:
    """Catalog-versus-construction comparison for Z_p at size s."""
    require_workers(workers)
    if not is_prime(p):
        raise DomainError(f"p must be prime, got {p}")
    catalog = exhaustive_scsf(p, size_filter=s, budget=budget, workers=workers)
    catalog_bits = {member.bits for member in catalog.members}

    double_t = p - 3 * s + 1
    t = double_t // 2 if double_t > 0 and double_t % 2 == 0 else None
    construction_bits = set()
    special_count = 0
    definition_valid = theorem_valid = False
    predicted: Optional[PredictedCount] = None
    if t is not None:
        params = STParameters(p, s)
        definition_valid = params.definition_valid
        theorem_valid = params.theorem_valid
        specials = enumerate_special(t, budget=budget, workers=workers)
        special_count = specials.g
        if definition_valid:
            for T in specials.sets:
                construction_bits |= _dilation_orbit(build_st(params, T))
        # the size class whose window is this t reuses the enumeration above
        if p % 3 == 1 and t % 3 == 1 and t >= 4:
            predicted = _predicted_count(p, (t - 1) // 3, specials)
        elif p % 3 == 2 and t % 3 == 0:
            predicted = _predicted_count(p, t // 3, specials)

    matched = catalog_bits & construction_bits
    catalog_only = tuple(
        CyclicSet(p, bits) for bits in sorted(catalog_bits - construction_bits)
    )
    construction_only = tuple(
        CyclicSet(p, bits) for bits in sorted(construction_bits - catalog_bits)
    )
    return ProbeReport(
        p=p,
        s=s,
        t=t,
        definition_valid=definition_valid,
        theorem_valid=theorem_valid,
        special_count=special_count,
        catalog_count=len(catalog_bits),
        construction_count=len(construction_bits),
        matched_count=len(matched),
        catalog_only=catalog_only,
        construction_only=construction_only,
        predicted=predicted,
    )


@dataclass(frozen=True)
class EquivalenceReport:
    """Outcome of comparing the t-special windows with the valid S_T.

    Counterexamples are the windows, as sorted member tuples, on which
    the two sides disagree.
    """

    n: int
    s: int
    t: int
    candidates: int
    special_count: int
    counterexamples: Tuple[Tuple[int, ...], ...]

    @property
    def ok(self) -> bool:
        return not self.counterexamples


def verify_st_equivalence(
    n: int,
    s: int,
    *,
    budget: Optional[int] = None,
    workers: int = 1,
) -> EquivalenceReport:
    """Check, for every window T, that T is t-special iff S_T is valid.

    Requires the proven range (theorem-valid).  Two exhaustive searches
    decide all 4**t windows: ``enumerate_special`` finds the t-special T,
    and the catalog search over the 2t window orbits {s + x, n - s - x},
    from the central interval with size filter s, finds every T whose S_T
    is complete and sum-free.  Each cuts a branch only when no superset
    can pass (2t - 1 in T + T + T; S_T meets S_T + S_T; |T| > t), so
    neither takes its verdict from the theorem under test.  The budget
    counts the 4**t windows and is refused up front.
    """
    require_workers(workers)
    params = STParameters(n, s)
    if not params.theorem_valid:
        raise ParameterError(
            f"(n, s) = ({n}, {s}) outside the proven range 2n <= 7s - 2"
        )
    params.require_definition_valid()
    t = params.t
    total = 1 << (2 * t)
    limit = DEFAULT_EQUIV_BUDGET if budget is None else budget
    if total > limit:
        raise BudgetExceededError(
            f"equivalence sweep needs {total} candidates, budget is {limit}",
            required=total,
            limit=limit,
        )
    # C(2t, t) <= 4**t <= limit, so the enumeration never refuses
    specials = enumerate_special(t, budget=limit, workers=workers)
    special = {T.mask for T in specials.sets}
    central = interval(n, n - 2 * s + 1, 2 * s - 1).bits
    # the orbit of window position x is S_T for T = {x} without the interval
    orbits = [_st_bits(0, 1 << x, t, s) for x in range(2 * t)]
    # s + T sits in bits s .. s + 2t - 1 of S_T
    valid = {
        bits >> s & (total - 1)
        for bits in _scsf_search(n, orbits, central, s, workers)
    }
    counterexamples = sorted(tuple(bit_positions(mask)) for mask in special ^ valid)
    return EquivalenceReport(
        n=n,
        s=s,
        t=t,
        candidates=total,
        special_count=specials.g,
        counterexamples=tuple(counterexamples),
    )
