"""Reference code the test files share.

These functions check the library from the definitions, slowly and
obviously; nothing in ``sumfree`` calls them.  ``sumset_per_run``
computes A + B with one wrapped rotation per maximal run of A, as the
library did before it folded whole progressions of runs.  ``brute_special``
re-enumerates the t-special windows with plain set arithmetic, and
``special_unpruned`` with the depth-first search the library ran before
it cut branches on the coverage condition, which cuts once 2t - 1 lies
in T + T + T where the library meets T + T with the mirror of T;
``gap_fill_check`` and ``bc_interval_check`` test the two closed-form
sumset claims of the interval-plus-progression construction, and
``five_piece_union`` assembles that construction from its five pieces,
each negated on its own, as the library did before it negated A u B once;
``canonical_dilation_class`` and ``classes_per_member`` split a catalog
into dilation classes one member at a time, as the library did before
its orbit sweep; ``scsf_skip_take`` runs one catalog search by a
recursion that skips or takes each orbit in turn, as the library did
before it looped at each node over the orbits that can still join;
``_max_sum_free_extend`` runs the maximum-sum-free search by one call
per sum-free set, as the library did before it kept its own stack;
``catalog_all_orbits`` (by the skip/take recursion) and
``max_sum_free_from_empty`` (by ``_max_sum_free_extend``) search every
set, not one representative per dilation orbit, as the library did
before it expanded the orbits of the sets holding 1;
``construction_dilates`` multiplies each S_T of the probe's construction
by each unit with the public ``dilate``, one set at a time, where the
probe expands whole orbits through the catalogs' helper;
``equivalence_per_window`` builds S_T for each of the 4^t windows and
runs the group predicates on it, as the library did before its
equivalence sweep compared two searches; ``_run_trial`` runs the
random sum-free process for one trial on Python integers, and
``_run_trial_block`` tallies a block of such trials, as the library did
before it ran 64 trials per machine word.
``rendered_as_lists`` renders a CLI payload with every set as a json
list of its members, as the CLI did before it wrote large sets as text
from their bit masks; ``first_difference`` compares such texts.
``cayley_edges`` lists the edges of a Cayley graph by a lowest-bit walk
of each row, as the library did before its exports listed each row's
bits in ``_bits``.
"""

import json
from itertools import product
from typing import Dict, List, Optional, Set, Tuple

import numpy as np
from numpy.random import Generator, Philox

from sumfree._bits import bit_positions, mirror, rotate
from sumfree.errors import ConstructionError
from sumfree.interval_ap_family import IntervalAPParameters, _half_even, component_sets
from sumfree.search_oracle import (
    Catalog,
    DilationClass,
    EquivalenceReport,
    MaxSumFreeCatalog,
    _pair_orbits,
)
from sumfree.special_sets import SpecialEnumeration
from sumfree.st_family import (
    STParameters,
    TCandidate,
    _is_special_mask,
    _st_bits,
    build_st,
)
from sumfree.zn_core import (
    CyclicSet,
    _sumset_bits,
    dilate,
    interval,
    negate,
    sumset,
    units,
)


def theorem_valid_pairs(max_n=200, max_t=6):
    """All (n, s) with t in [1, max_t], n <= max_n, in the proven range."""
    out = []
    for t in range(1, max_t + 1):
        s = 4 * t  # smallest s with 2n <= 7s - 2 at this t
        while 3 * s + 2 * t - 1 <= max_n:
            out.append((3 * s + 2 * t - 1, s))
            s += 1
    return out


def sumset_per_run(a_bits: int, b_bits: int, n: int) -> int:
    """Bit-vector of A + B mod n, one doubling spread and rotation per run of A.

    A (the operand with fewer members) is split into maximal runs
    [start, stop) by the positions of the edge mask A ^ (A << 1), taken in
    pairs.  Each run spreads B over {0, ..., L-1} by doubling shift-ORs and
    rotates the spread by its start; start + L <= n keeps every bit below
    2n, so the rotation's right shift folds it back into n bits.
    """
    if a_bits == 0 or b_bits == 0:
        return 0
    if a_bits.bit_count() > b_bits.bit_count():
        a_bits, b_bits = b_bits, a_bits
    acc = 0
    edges = iter(bit_positions(a_bits ^ (a_bits << 1)))
    for start, stop in zip(edges, edges):
        length = stop - start
        spread = b_bits
        width = 1
        while width < length:
            step = width if 2 * width <= length else length - width
            spread |= spread << step
            width += step
        acc |= (spread << start) | (spread >> (n - start))
    return acc & ((1 << n) - 1)


def rendered_as_lists(payload: object, pretty: bool) -> str:
    """``CommandEnvelope(payload, pretty=pretty).rendered()`` with every
    CyclicSet in the payload replaced by the list of its members."""

    def members(obj):
        return bit_positions(obj.bits)

    if pretty:
        return json.dumps(payload, indent=2, default=members)
    return json.dumps(payload, separators=(",", ":"), default=members)


def first_difference(got: str, expected: str) -> Optional[int]:
    """Index of the first character where two texts differ, None if equal.

    Assert on this for texts of megabytes: pytest's own diff of two long
    lines compares them character by character and takes minutes.
    """
    if got == expected:
        return None
    pairs = enumerate(zip(got, expected))
    return next((i for i, (a, b) in pairs if a != b), min(len(got), len(expected)))


def cayley_edges(graph) -> List[Tuple[int, int]]:
    """The edges (u, v), u < v, of a CayleyGraph, ascending."""
    out = []
    for u in range(graph.n):
        row = rotate(graph.generators.bits, u, graph.n) >> u + 1 << u + 1
        while row:
            low = row & -row
            out.append((u, low.bit_length() - 1))
            row ^= low
    return out


def brute_special(t: int) -> SpecialEnumeration:
    """Re-enumerate the special windows straight from the definition.

    Every subset of [0, 2t-1] is tested with plain set arithmetic: size t,
    no triple summing to 2t-1, and coverage of [0, 2t-1+min T] outside the
    mirror 2t-1-T by pair sums.  It walks all 4^t subsets, so keep t <= 8.
    """
    width = 2 * t
    found = []
    for mask in range(1 << width):
        members = [i for i in range(width) if mask >> i & 1]
        if len(members) != t:
            continue
        triples = {a + b + c for a, b, c in product(members, repeat=3)}
        if 2 * t - 1 in triples:
            continue
        pair_sums = {a + b for a, b in product(members, repeat=2)}
        mirror = {2 * t - 1 - x for x in members}
        needed = range(2 * t + min(members))
        if all(v in pair_sums for v in needed if v not in mirror):
            found.append(TCandidate(t, mask))
    return SpecialEnumeration(t, tuple(found))


def _unpruned_dfs(
    t: int, x: int, size: int, T: int, T2: int, T3: int, out: List[int]
) -> None:
    """Decide positions x..2t-1; append the t-special completions of T to out."""
    if size == t:
        if _is_special_mask(T, t):
            out.append(T)
        return
    if 2 * t - x < t - size:
        return
    _unpruned_dfs(t, x + 1, size, T, T2, T3, out)
    # T, T + T and T + T + T (integer sums, as bit masks) after adding x
    T, T2, T3 = (
        T | 1 << x,
        T2 | T << x | 1 << 2 * x,
        T3 | T2 << x | T << 2 * x | 1 << 3 * x,
    )
    # T + T + T only grows, so once it holds 2t - 1 no superset is special
    if not T3 >> (2 * t - 1) & 1:
        _unpruned_dfs(t, x + 1, size + 1, T, T2, T3, out)


def special_unpruned(t: int) -> SpecialEnumeration:
    """The special windows by a search that cuts only on T + T + T and size.

    No coverage prune: every size-t set that passes the triple-sum
    condition reaches the leaf test.  Its cost grows about 2.5x per step
    of t, so keep t <= 16.
    """
    masks: List[int] = []
    _unpruned_dfs(t, 0, 0, 0, 0, 0, masks)
    return SpecialEnumeration(t, tuple(TCandidate(t, m) for m in sorted(masks)))


def five_piece_union(params: IntervalAPParameters) -> int:
    """The mask of A u -A u B u -B u C, from component_sets."""
    A, B, C = component_sets(params)
    return A.bits | negate(A).bits | B.bits | negate(B).bits | C.bits


def gap_fill_check(params: IntervalAPParameters) -> bool:
    """-B and A+B are disjoint and tile one closed-form interval."""
    n, t, d = params.n, params.t, params.d
    A, B, _ = component_sets(params)
    neg_b = negate(B)
    ab = sumset(A, B)
    lo = (n + 1) // 2 + t + 2 * d - 2
    hi = _half_even(3 * n // 2 - t - 1) - d + 1
    expected = interval(n, lo, hi)
    return neg_b.bits & ab.bits == 0 and neg_b.bits | ab.bits == expected.bits


def bc_interval_check(params: IntervalAPParameters) -> bool:
    """B+C equals its closed-form interval; needs |C| >= d to tile."""
    if not params.hypothesis_ok:
        raise ConstructionError(
            f"hypothesis |C| >= d fails: |C| = {params.c_size} < d = {params.d}"
        )
    n, t, d = params.n, params.t, params.d
    _, B, C = component_sets(params)
    bc = sumset(B, C)
    lo = _half_even(3 * n // 2 - t + 1) + 2 * d - 2
    hi = n - 2 * d + 2
    return bc.bits == interval(n, lo, hi).bits


def canonical_dilation_class(a: CyclicSet) -> CyclicSet:
    """Canonical representative of {u * A : u a unit}.

    The representative is the orbit member whose membership bit-string,
    read from index 0 upward, is lexicographically least.  Any total order
    would do; this one is reproducible and cheap.
    """
    n = a.modulus
    # lexicographic order on the membership string read from index 0
    # upward is the numeric order of the mirrored mask; units(n) is never empty
    best = min(
        (dilate(a, u).bits for u in units(n)),
        key=lambda bits: mirror(bits, n),
    )
    return CyclicSet(n, best)


def classes_per_member(members: Tuple[CyclicSet, ...]) -> Tuple[DilationClass, ...]:
    """Dilation classes by bucketing every member under its canonical form.

    This does phi(n) dilations per member and trusts the catalog to be
    closed: a class's orbit_size is the number of members in its bucket.
    """
    buckets: Dict[int, List[CyclicSet]] = {}
    reps: Dict[int, CyclicSet] = {}
    for member in members:
        rep = canonical_dilation_class(member)
        buckets.setdefault(rep.bits, []).append(member)
        reps[rep.bits] = rep
    return tuple(
        DilationClass(reps[bits], len(bucket))
        for bits, bucket in sorted(buckets.items())
    )


def _skip_take_dfs(
    n: int,
    orbits: List[int],
    suffix: List[int],
    index: int,
    s_bits: int,
    ss_bits: int,
    size_filter: Optional[int],
    out: List[int],
) -> None:
    """Decide orbits index..; one call per skip and per take of each orbit."""
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
    _skip_take_dfs(n, orbits, suffix, index + 1, s_bits, ss_bits, size_filter, out)
    # take it; S and S+S only grow, so a sum-free violation is permanent
    new_s = s_bits | orbit
    new_ss = ss_bits
    x = (orbit & -orbit).bit_length() - 1
    for shift in {x, n - x}:
        new_ss |= rotate(new_s, shift, n)
    if new_s & new_ss == 0:
        _skip_take_dfs(n, orbits, suffix, index + 1, new_s, new_ss, size_filter, out)


def scsf_skip_take(
    n: int, orbits: List[int], start: int, size_filter: Optional[int] = None
) -> List[int]:
    """The complete sum-free sets start | (a union of orbits), in bit order.

    One unsharded search that decides the orbits in turn, skip first, then
    take, and tests completeness once every orbit is decided, as the
    library did before its search looped over the orbits that can still
    join.  It recurses once per orbit, so keep n well under twice the
    recursion limit.
    """
    suffix = [0] * (len(orbits) + 1)
    for i in range(len(orbits) - 1, -1, -1):
        suffix[i] = suffix[i + 1] + orbits[i].bit_count()
    ss_bits = _sumset_bits(start, start, n)
    out: List[int] = []
    if start & ss_bits == 0:
        _skip_take_dfs(n, orbits, suffix, 0, start, ss_bits, size_filter, out)
    return sorted(out)


def catalog_all_orbits(n: int, size_filter: Optional[int] = None) -> Catalog:
    """The catalog by one skip/take search from the empty set over every
    negation orbit.

    No budget: at n = 56 it takes about 0.3 s.  Classes come from
    ``classes_per_member``.
    """
    leaves = scsf_skip_take(n, _pair_orbits(n), 0, size_filter)
    members = tuple(CyclicSet(n, bits) for bits in leaves)
    return Catalog(n, size_filter, members, classes_per_member(members))


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


def max_sum_free_from_empty(p: int) -> MaxSumFreeCatalog:
    """The maximum sum-free sets of Z_p by a search from the empty set.

    Every sum-free set is a branch, not only those holding 1.  Classes
    come from ``classes_per_member``.
    """
    best = [0]
    leaves: List[Tuple[int, int]] = []
    everything_but_0 = ((1 << p) - 1) & ~1
    _max_sum_free_extend(p, pow(2, -1, p), 0, 0, 0, everything_but_0, best, leaves)
    members = tuple(
        CyclicSet(p, bits) for size, bits in sorted(leaves) if size == best[0]
    )
    return MaxSumFreeCatalog(p, best[0], members, classes_per_member(members))


def construction_dilates(p: int, s: int) -> Set[int]:
    """Bit masks of u * S_T for every unit u and every t-special window T.

    The windows come from ``brute_special`` and each S_T from
    ``build_st``; needs the construction defined at (p, s) and t <= 8.
    """
    params = STParameters(p, s)
    params.require_definition_valid()
    return {
        dilate(build_st(params, T), u).bits
        for T in brute_special(params.t).sets
        for u in units(p)
    }


def equivalence_per_window(n: int, s: int) -> EquivalenceReport:
    """The S_T equivalence report, one window at a time.

    Every mask T of [0, 2t - 1] gets the t-special test and a full S_T
    with a fresh sumset, and the two verdicts are compared.  It walks all
    4^t windows, so keep t <= 8.
    """
    t = STParameters(n, s).t
    central = interval(n, n - 2 * s + 1, 2 * s - 1).bits
    group_mask = (1 << n) - 1
    special_count = 0
    counterexamples = []
    for mask in range(1 << (2 * t)):
        special = _is_special_mask(mask, t)
        special_count += special
        bits = _st_bits(central, mask, t, s)
        ss = _sumset_bits(bits, bits, n)
        group_side = (
            ss & bits == 0
            and (bits | ss) == group_mask
            and bits.bit_count() == s
        )
        if special != group_side:
            counterexamples.append(tuple(bit_positions(mask)))
    return EquivalenceReport(
        n=n,
        s=s,
        t=t,
        candidates=1 << (2 * t),
        special_count=special_count,
        counterexamples=tuple(sorted(counterexamples)),
    )


def _trial_coins(seed: int, trial: int, horizon: int) -> int:
    """Coin bits for one trial; bit z = the coin for step z, z in [1, N].

    Streams are keyed by (seed, trial) with the block counter supplying the
    step dimension, so any trial sharding yields identical coins.
    """
    gen = Generator(Philox(key=np.array([seed, trial], np.uint64)))
    raw = int.from_bytes(gen.bytes((horizon + 7) // 8), "little")
    return (raw & ((1 << horizon) - 1)) << 1


def _run_trial(
    horizon: int,
    seed: int,
    trial: int,
    modulus: Optional[int],
    member_bits: Optional[int],
) -> Tuple[Optional[int], int]:
    """(step at which the trial leaves M_S or None, elements it joined)."""
    full = (1 << (horizon + 1)) - 1
    coins = _trial_coins(seed, trial, horizon)
    joined = 0
    sums = 0
    candidates = coins
    while candidates:
        low = candidates & -candidates
        z = low.bit_length() - 1
        if member_bits is not None and not member_bits >> (z % modulus) & 1:
            return z, joined.bit_count()
        joined |= low
        sums |= (joined << z) & full
        candidates = coins & ~sums & ~((low << 1) - 1)
    return None, joined.bit_count()


def _run_trial_block(
    horizon: int,
    seed: int,
    start: int,
    count: int,
    modulus: Optional[int],
    member_bits: Optional[int],
) -> Tuple[int, int]:
    """(contained trials, total joined among contained) for one block."""
    contained = 0
    joined_total = 0
    for trial in range(start, start + count):
        left_at, joined = _run_trial(horizon, seed, trial, modulus, member_bits)
        if left_at is None:
            contained += 1
            joined_total += joined
    return contained, joined_total
