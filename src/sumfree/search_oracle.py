"""Exhaustive ground truth for the constructions.

Catalogs of symmetric complete sum-free sets for small moduli, maximum
sum-free sets for small primes, evidence reports comparing catalogs
against the dilation closure of the central-interval construction, and
the S_T equivalence sweep, which compares the t-special windows with the
windows whose S_T the catalog search accepts.  The searches are
exhaustive, so the constructions are tested against them, never the
other way round.  Both catalogs search the sets that hold 1, one or more
per unit-dilation orbit, and expand them by the units; those orbits are
the dilation classes.

The searches cut only subtrees that hold no leaf, so each returns the
leaves of its uncut tree in the same order.  The catalog search, which
the probe and the S_T sweep share, cuts a node when the orbits that can
still join fall short of the size filter, and when some member that no
later orbit holds cannot lie in the sumset of any leaf below.  The
maximum-sum-free search cuts a node when, with no two members one apart,
its candidates cannot reach the best size found so far.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from typing import List, Optional, Set, Tuple

from ._bits import bit_positions, mirror
from ._parallel import SHARD_BITS, require_workers, run_sharded
from ._primes import is_prime
from .errors import (
    BudgetExceededError,
    ConstructionError,
    DomainError,
    ParameterError,
    require_budget,
)
from .special_sets import (
    PredictedCount,
    _predicted_count,
    _special_dfs,
    enumerate_special,
)
from .st_family import STParameters, _st_bits, build_st
from .zn_core import CyclicSet, _sumset_bits, classify, interval, units

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

# 2^(n//2) symmetric candidates: n <= 45 by default
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


def _dilation_orbit(bits: int, tables: List[List[int]]) -> Set[int]:
    """Bit masks of {u * A : u a unit mod n}, A given by its bit mask and
    each unit u by its table [1 << (u * x % n) for x in range(n)].

    A's positions are listed once; a dilate is the sum of its table's
    entries at them, the OR of distinct bits.
    """
    positions = bit_positions(bits)
    return {sum(map(table.__getitem__, positions)) for table in tables}


def _orbit_union(n: int, leaves: List[int]) -> Tuple[Set[int], List[Set[int]]]:
    """The masks of every unit dilate of the leaves, and their orbits.

    A leaf already claimed by an earlier leaf's orbit adds nothing, so each
    orbit is built once, in the order of the leaves that reach it first.
    The per-unit tables are built once per call.
    """
    bit = [1 << x for x in range(n)]
    tables = [[bit[u * x % n] for x in range(n)] for u in units(n)]
    claimed: Set[int] = set()
    orbits = []
    for leaf in leaves:
        if leaf not in claimed:
            orbits.append(_dilation_orbit(leaf, tables))
            claimed |= orbits[-1]
    return claimed, orbits


def _expand_orbits(
    n: int, leaves: List[int]
) -> Tuple[Tuple[CyclicSet, ...], Tuple[DilationClass, ...]]:
    """Every unit dilate of the leaves in bit order, and the classes they form.

    Each orbit is one class: its representative is the member with the
    least mirrored mask, and classes are in increasing order of the
    representative's mask.
    """
    claimed, orbits = _orbit_union(n, leaves)
    classes = []
    for orbit in orbits:
        rep = min(orbit, key=lambda bits: mirror(bits, n))
        classes.append(DilationClass(CyclicSet(n, rep), len(orbit)))
    classes.sort(key=lambda c: c.representative.bits)
    members = tuple(CyclicSet(n, bits) for bits in sorted(claimed))
    return members, tuple(classes)


@dataclass(frozen=True)
class Catalog:
    """Every symmetric complete sum-free subset of Z_n, in bit order,
    and the unit-dilation classes they fall into."""

    n: int
    size_filter: Optional[int]
    members: Tuple[CyclicSet, ...]
    classes: Tuple[DilationClass, ...]


@dataclass(frozen=True)
class MaxSumFreeCatalog:
    """Every maximum-size sum-free subset of Z_p, in bit order.

    Unlike Catalog, members need not be symmetric or complete; the class
    decomposition is still by unit dilation.
    """

    p: int
    max_size: int
    members: Tuple[CyclicSet, ...]
    classes: Tuple[DilationClass, ...]


def _pair_orbits(n: int) -> List[int]:
    """Bit masks of the negation orbits {x, n-x}, smallest x first."""
    orbits = [(1 << x) | (1 << (n - x)) for x in range(1, (n + 1) // 2)]
    if n % 2 == 0 and n >= 2:
        orbits.append(1 << (n // 2))
    return orbits


def _scsf_dfs(
    n: int,
    orbits: List[int],
    shifts: List[Tuple[int, int]],
    later: List[int],
    index: int,
    s_bits: int,
    ss_bits: int,
    size_filter: Optional[int],
) -> List[int]:
    """The complete sets among S and its sum-free supersets by the orbits
    from index on; one stack entry per sum-free set.

    ``later[i]`` is the union of the orbits from i on.  A node that is not
    complete is cut when no leaf lies below it, by two tests:

    - size: S + S only grows, so only the orbits of later[index] that miss
      S + S can still join, and a size filter that S together with all of
      them falls short of is never met.  The same count over the orbits
      from i on ends the loop over the children;
    - coverability: a member y outside S, S + S and later[index] never
      joins, so a complete leaf below must hold y in its sumset.  That
      leaf lies in U = S | joinable, so y must lie in U + U.  U is a
      union of negation orbits, hence symmetric, and y is in U + U iff U
      meets y + U, one shift and one AND.  After as many shifts as U has
      run edges, one sumset of U, built by runs, decides the y left: the
      same test, at a cost bounded by U's runs.

    Neither cut drops a leaf, so the leaves and their order are those of
    the search without them.
    """
    full = (1 << n) - 1
    out: List[int] = []
    stack = [(index, s_bits, ss_bits)]
    while stack:
        index, s_bits, ss_bits = stack.pop()
        covered = s_bits | ss_bits
        if covered == full:
            # complete, so maximal: no orbit can join
            if size_filter is None or s_bits.bit_count() == size_filter:
                out.append(s_bits)
            continue
        joinable = later[index] & ~ss_bits
        if size_filter is not None:
            size = s_bits.bit_count()
            if size > size_filter or size + joinable.bit_count() < size_filter:
                continue
        # U holds every leaf below; each member y that never joins and is
        # not yet covered must lie in U + U, that is U must meet y + U,
        # which is (U | U << n) >> (n - y).  A shift per y is tried up to
        # the count of U's run edges, then one sumset by runs tests the rest
        u_bits = s_bits | joinable
        wide = u_bits | u_bits << n
        uncovered = full & ~(covered | later[index])
        tries = (u_bits ^ u_bits << 1).bit_count()
        while uncovered and tries:
            low = uncovered & -uncovered
            if not wide >> (n - low.bit_length() + 1) & u_bits:
                break
            uncovered ^= low
            tries -= 1
        if uncovered and (tries or uncovered & ~_sumset_bits(u_bits, u_bits, n)):
            continue
        for i in range(index, len(orbits)):
            # the joinable members from orbit i on only fall as i grows
            if (
                size_filter is not None
                and size + (later[i] & joinable).bit_count() < size_filter
            ):
                break
            orbit = orbits[i]
            # S + S only grows, so an orbit it meets never joins below this node
            if orbit & ss_bits:
                continue
            new_s = s_bits | orbit
            wide = new_s | new_s << n
            right, left = shifts[i]
            new_ss = (ss_bits | wide >> right | wide >> left) & full
            if not new_s & new_ss:
                stack.append((i + 1, new_s, new_ss))
    return out


def _orbit_shifts(orbit: int, n: int) -> Tuple[int, int]:
    """The right shifts r = n - x, one per member x of the negation orbit
    {x, n - x}: ((S | S << n) >> r) & full is rotate(S, x, n)."""
    x = (orbit & -orbit).bit_length() - 1
    return (n - x, n - x) if orbit == 1 << x else (n - x, x)


def _search_tables(
    n: int, orbits: List[int]
) -> Tuple[List[Tuple[int, int]], List[int]]:
    """Each orbit's shifts, and later[i], the union of the orbits from i on."""
    later = [0] * (len(orbits) + 1)
    for i in range(len(orbits) - 1, -1, -1):
        later[i] = later[i + 1] | orbits[i]
    return [_orbit_shifts(orbit, n) for orbit in orbits], later


def _scsf_shard(
    n: int,
    orbits: List[int],
    shifts: List[Tuple[int, int]],
    later: List[int],
    start: int,
    orbits_prefix_len: int,
    prefix_choice: int,
    size_filter: Optional[int],
) -> List[int]:
    """Search start plus subsets of the orbits, the first fixed by the choice bitmap.

    The catalog starts from {1, n - 1} over the other negation orbits and
    from the empty set over the non-unit ones, the S_T equivalence sweep
    from the central interval over the window orbits.  The shifts and
    later come from ``_search_tables``, built once per search.
    """
    s_bits = start
    for i in range(orbits_prefix_len):
        if prefix_choice >> i & 1:
            s_bits |= orbits[i]
    ss_bits = _sumset_bits(s_bits, s_bits, n)
    # S and S + S only grow, so a sum-free violation here is permanent
    if s_bits & ss_bits:
        return []
    return _scsf_dfs(
        n, orbits, shifts, later, orbits_prefix_len, s_bits, ss_bits, size_filter
    )


def _catalog_searches(n: int) -> List[Tuple[List[int], int]]:
    """The catalog's (orbits, start) searches: for n >= 3, the members
    holding 1 and those holding no unit."""
    orbits = _pair_orbits(n)
    if n <= 2:
        return [(orbits, 0)]
    # orbits[0] is {1, n - 1}; an orbit's lowest bit is its smaller residue
    non_units = [o for o in orbits if gcd((o & -o).bit_length() - 1, n) > 1]
    return [(orbits[1:], orbits[0]), (non_units, 0)]


def _scsf_search(
    n: int,
    searches: List[Tuple[List[int], int]],
    size_filter: Optional[int],
    workers: int,
) -> List[int]:
    """The leaves of the (orbits, start) searches, from one sharded call.

    Each search is cut on the choices on its first orbits, with one prefix
    bit fewer per doubling of the searches, so the shards number at most
    2**SHARD_BITS in all and one pool runs them.  Each search's shifts
    and unions of later orbits are built once and shared by its shards.
    """
    bits = SHARD_BITS - (len(searches) - 1).bit_length()
    shards = []
    for orbits, start in searches:
        prefix = min(bits, len(orbits))
        shifts, later = _search_tables(n, orbits)
        shards += [
            (n, orbits, shifts, later, start, prefix, choice, size_filter)
            for choice in range(1 << prefix)
        ]
    return [leaf for part in run_sharded(_scsf_shard, shards, workers) for leaf in part]


def exhaustive_scsf(
    n: int,
    size_filter: Optional[int] = None,
    *,
    budget: Optional[int] = None,
    workers: int = 1,
) -> Catalog:
    """Enumerate all symmetric complete sum-free subsets of Z_n.

    Candidates are unions of negation orbits {x, n - x} (0 is never
    sum-free), searched depth-first with the partial sumset carried along:
    each node is one sum-free set, and it is either complete, hence a
    member, or tries every later orbit that misses its sumset.
    Dilation by a unit u maps members to members, and a member holding a
    unit u has the dilate u^-1 * S, which holds 1.  So for n >= 3 two
    searches suffice: one from {1, n - 1} over the other orbits finds the
    members holding 1, and each is expanded by its unit dilates; one from
    the empty set over the orbits of non-units finds the members holding
    no unit (none for prime n).  The expansion's orbits are the catalog's
    dilation classes, each built from one table per unit.  Both searches'
    shards, the choices on their first SHARD_BITS - 1 orbits, go to one
    sharded call; one worker runs them in-process.  A node is cut when S
    with every later orbit that misses S + S falls short of the size
    filter, or when a member outside S, S + S and the later orbits lies
    outside U + U, U being S with those orbits: it never joins, so every
    complete leaf below would need it in its sumset.  Neither cut drops a
    member.  Every member, not only the searched ones, is verified with
    ``classify``.  A negative size filter is refused: no set has that size.
    """
    require_workers(workers)
    if n < 1:
        raise DomainError(f"modulus must be positive, got {n}")
    if size_filter is not None and size_filter < 0:
        raise ParameterError(f"size filter must be >= 0, got {size_filter}")
    require_budget(
        f"exhaustive search at n = {n} means",
        "symmetric candidates",
        1 << (n // 2),
        budget,
        DEFAULT_SCSF_BUDGET,
    )
    leaves = _scsf_search(n, _catalog_searches(n), size_filter, workers)
    members, classes = _expand_orbits(n, leaves)
    for member in members:
        props = classify(member)
        if not (props.symmetric and props.sum_free and props.complete):
            raise ConstructionError(f"search returned a non-member {member}: {props}")
    return Catalog(n, size_filter, members, classes)


def _max_sum_free_leaves(p: int) -> List[Tuple[int, int]]:
    """The (size, bits) leaves of the search from {1}, in visit order.

    A stack entry is a sum-free set S, the mask of -S, |S| and the elements
    that can still join and are untried at that node.  Popping one tries
    its least candidate x: the rest go back on the stack and the child
    S | {x} above them, so the children come in increasing order of x.

    A node is cut when no set below it can reach the best size found so
    far.  1 is in S, so y and y + 1 never both join; a run of L
    consecutive candidates gives at most ceil(L / 2) <= L - (L - 1) / 2
    members, and the candidates at most their count less half their
    adjacent pairs.  A cut subtree holds only sets smaller than best, which
    never falls, so the leaves are those of the search that cut only on
    the count of candidates, in the same order.
    """
    inv2 = pow(2, -1, p)
    best = 0
    leaves: List[Tuple[int, int]] = []
    # {1} rules out 1 + 1 = 2 and 1 / 2 = inv2 as further members
    allowed = ((1 << p) - 1) & ~0b111 & ~(1 << inv2)
    stack = [(0b10, 1 << (p - 1), 1, allowed)]
    while stack:
        s_bits, neg_bits, size, rest = stack.pop()
        # best may have grown since this entry was pushed; each adjacent
        # pair of candidates costs half a member, since 1 is in S
        if 2 * (size + rest.bit_count()) - (rest & rest >> 1).bit_count() < 2 * best:
            continue
        # a node goes back on the stack only with candidates left, so an
        # empty rest means no element can join: every maximum set shows up
        # exactly here
        if not rest:
            if size > best:
                best = size
            leaves.append((size, s_bits))
            continue
        low = rest & -rest
        x = low.bit_length() - 1
        rest ^= low
        if rest:
            stack.append((s_bits, neg_bits, size, rest))
        new_s = s_bits | low
        new_neg = neg_bits | (1 << (p - x))
        # S + x, S - x and x - S are right shifts of S | S << p and of
        # -S | -S << p; the bits past p - 1 fall outside rest
        wide_s = new_s | new_s << p
        wide_neg = new_neg | new_neg << p
        forbidden = (
            wide_s >> (p - x) | wide_s >> x | wide_neg >> (p - x) | 1 << (inv2 * x % p)
        )
        # only y > x can join below; smaller y belong to earlier branches
        stack.append((new_s, new_neg, size + 1, rest & ~forbidden))
    return leaves


def exhaustive_max_sum_free(
    p: int, *, budget: Optional[int] = None
) -> MaxSumFreeCatalog:
    """All maximum-size sum-free subsets of Z_p, p an odd prime.

    Every nonempty subset of Z_p holds a unit u, and u^-1 * S holds 1, so
    the search covers only the sets holding 1 and expands the maximum ones
    by the units 1..p-1; the orbits are the catalog's dilation classes.
    Depth-first over elements in increasing order from {1}, carrying the
    mask of elements that can still individually join; a node is pruned
    when those elements, of which no two adjacent ones both join, cannot
    reach the best size found so far.  The budget is the largest prime
    accepted.
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
    leaves = _max_sum_free_leaves(p)
    max_size = max(size for size, _ in leaves)
    members, classes = _expand_orbits(
        p, [bits for size, bits in leaves if size == max_size]
    )
    return MaxSumFreeCatalog(p, max_size, members, classes)


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
    """Catalog-versus-construction comparison for Z_p at size s.

    ``workers`` shards the catalog search; the t-special windows behind
    the construction come from one search in this process.
    """
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
        specials = enumerate_special(t, budget=budget)
        special_count = specials.g
        if definition_valid:
            construction_bits, _ = _orbit_union(
                p, [build_st(params, T).bits for T in specials.sets]
            )
        # the size class whose window is this t, if any, reuses the enumeration above
        predicted = _predicted_count(p, specials)

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


def _window_search(n: int, s: int, t: int) -> Tuple[List[int], int]:
    """The (orbits, start) search whose complete sets of size s are the
    valid S_T: the 2t window orbits from the central interval."""
    central = interval(n, n - 2 * s + 1, 2 * s - 1).bits
    # the orbit of window position x is S_T for T = {x} without the interval
    return [_st_bits(0, 1 << x, t, s) for x in range(2 * t)], central


def verify_st_equivalence(
    n: int,
    s: int,
    *,
    budget: Optional[int] = None,
    workers: int = 1,
) -> EquivalenceReport:
    """Check, for every window T, that T is t-special iff S_T is valid.

    Requires the proven range (theorem-valid).  Two exhaustive searches
    decide all 4**t windows: ``_special_dfs`` finds the t-special T, and
    the catalog search over the 2t window orbits {s + x, n - s - x}, from
    the central interval with size filter s, finds every T whose S_T is
    complete and sum-free.  Each cuts a branch only when no superset can
    pass (2t - 1 in T + T + T; |T| > t; S_T meets S_T + S_T, cannot reach
    size s, or misses a member that no completion's sumset can hold), so
    neither takes its verdict from the theorem under test.  The budget
    counts the 4**t windows and is refused up front.  ``workers`` shards the catalog
    search; the window search runs in this process.
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
    require_budget(
        "equivalence sweep needs", "candidates", total, budget, DEFAULT_EQUIV_BUDGET
    )
    special = set(_special_dfs(t))
    # s + T sits in bits s .. s + 2t - 1 of S_T
    valid = {
        bits >> s & (total - 1)
        for bits in _scsf_search(n, [_window_search(n, s, t)], s, workers)
    }
    counterexamples = sorted(tuple(bit_positions(mask)) for mask in special ^ valid)
    return EquivalenceReport(
        n=n,
        s=s,
        t=t,
        candidates=total,
        special_count=len(special),
        counterexamples=tuple(counterexamples),
    )
