"""Brute-force oracle tests.

The exhaustive searchers are themselves checked against an even dumber
oracle: literal iteration over all 2^n subsets with the zn_core predicates.
The searches over one representative per dilation orbit are checked
against the searches over every set they replaced, their dilation classes
against the per-member canonical form, and the S_T equivalence sweep
against the per-window loop it replaced.  The catalog search, which
loops at each node over the orbits that can still join, is checked
against the skip/take recursion it replaced, and the maximum-sum-free
loop, leaf by leaf and in order, against the recursion it replaced.
"""

import random
import sys

import pytest

from oracles import (
    _max_sum_free_extend,
    brute_special,
    catalog_all_orbits,
    classes_per_member,
    construction_dilates,
    equivalence_per_window,
    max_sum_free_from_empty,
    scsf_skip_take,
    scsf_uncut,
    special_unpruned,
    sumset_per_run,
    theorem_valid_pairs,
)
from sumfree import search_oracle
from sumfree._primes import is_prime
from sumfree.errors import BudgetExceededError, DomainError, ParameterError
from sumfree.search_oracle import (
    _catalog_searches,
    _max_sum_free_leaves,
    _orbit_union,
    _pair_orbits,
    _scsf_dfs,
    _scsf_search,
    _search_tables,
    _window_search,
    characterization_probe,
    exhaustive_max_sum_free,
    exhaustive_scsf,
    verify_st_equivalence,
)
from sumfree.special_sets import enumerate_special, predicted_scsf_count
from sumfree.zn_core import (
    CyclicSet,
    classify,
    dilate,
    is_sum_free,
    negate,
    units,
)


def dumb_scsf(n):
    out = []
    for bits in range(1 << n):
        props = classify(CyclicSet(n, bits))
        if props.symmetric and props.sum_free and props.complete:
            out.append(CyclicSet(n, bits))
    return out


# --- exhaustive catalog ---


def test_catalog_tiny_moduli():
    assert [m.elements() for m in exhaustive_scsf(2).members] == [[1]]
    assert exhaustive_scsf(3).members == ()
    assert [m.elements() for m in exhaustive_scsf(8).members] == [
        [3, 4, 5],
        [1, 4, 7],
        [1, 3, 5, 7],
    ]


def test_catalog_z1_empty():
    assert exhaustive_scsf(1).members == ()


@pytest.mark.parametrize("n", range(1, 15))
def test_catalog_matches_dumb_oracle(n):
    fast = {m.bits for m in exhaustive_scsf(n).members}
    assert fast == {m.bits for m in dumb_scsf(n)}


def test_catalog_members_sorted_and_verified():
    catalog = exhaustive_scsf(20)
    bit_list = [m.bits for m in catalog.members]
    assert bit_list == sorted(bit_list)
    for member in catalog.members:
        props = classify(member)
        assert props.symmetric and props.sum_free and props.complete


def test_catalog_closed_under_dilation():
    catalog = exhaustive_scsf(16)
    bits = {m.bits for m in catalog.members}
    for member in catalog.members:
        for u in units(16):
            assert dilate(member, u).bits in bits


def test_catalog_classes_z8():
    catalog = exhaustive_scsf(8)
    reps = [(c.representative.elements(), c.orbit_size) for c in catalog.classes]
    assert reps == [([3, 4, 5], 2), ([1, 3, 5, 7], 1)]
    assert sum(c.orbit_size for c in catalog.classes) == len(catalog.members)


@pytest.mark.parametrize("n", range(1, 49))
def test_catalog_classes_match_per_member_oracle(n):
    catalog = exhaustive_scsf(n, budget=1 << 24)
    assert catalog.classes == classes_per_member(catalog.members)


@pytest.mark.parametrize("n", [29, 36, 41, 44])
def test_size_filtered_classes_match_per_member_oracle(n):
    for s in sorted({m.size for m in exhaustive_scsf(n).members}):
        catalog = exhaustive_scsf(n, size_filter=s)
        assert catalog.classes == classes_per_member(catalog.members)


def test_catalog_without_members_has_no_classes():
    assert exhaustive_scsf(3).classes == ()


def test_each_dilation_orbit_is_built_once(monkeypatch):
    # classes come from the orbits that expand the searched representatives,
    # with no second sweep over the units when they are read
    honest = search_oracle._dilation_orbit
    built = []

    def counting(bits, tables):
        built.append(bits)
        return honest(bits, tables)

    monkeypatch.setattr(search_oracle, "_dilation_orbit", counting)
    catalog = exhaustive_scsf(40)
    assert len(built) == len(catalog.classes) > 1
    built.clear()
    catalog = exhaustive_max_sum_free(43)
    assert len(built) == len(catalog.classes) > 1


def test_orbit_union_matches_dilate_per_unit():
    # the per-unit tables against one zn_core.dilate per unit, on masks
    # that negation moves, so that u and -u give different dilates
    rng = random.Random(30)
    for n in range(1, 71):
        masks = []
        while len(masks) < 3:
            a = CyclicSet(n, rng.getrandbits(n))
            if n <= 2 or negate(a) != a:
                masks.append(a)
        expected = [{dilate(a, u).bits for u in units(n)} for a in masks]
        for a, orbit in zip(masks, expected):
            assert _orbit_union(n, [a.bits]) == (orbit, [orbit]), (n, a)
        claimed, _ = _orbit_union(n, [a.bits for a in masks])
        assert claimed == set().union(*expected), n


@pytest.mark.parametrize("n", range(1, 57))
def test_catalog_matches_search_over_all_orbits(monkeypatch, n):
    expected = catalog_all_orbits(n)
    searches = []

    def recorder(fn, shards, workers):
        searches.append(len(shards))
        return [fn(*args) for args in shards]

    monkeypatch.setattr(search_oracle, "run_sharded", recorder)
    assert exhaustive_scsf(n, budget=1 << 28) == expected
    # both sub-searches share one sharded call
    assert len(searches) == 1 and searches[0] <= 64
    sizes = sorted({m.size for m in expected.members})
    # every size up to n = 40, then the extremes; 1 never occurs for n > 2
    for s in (sizes if n <= 40 else sizes[:1] + sizes[-1:]) + [1]:
        members = tuple(m for m in expected.members if m.size == s)
        # dilation keeps the size, so a class lies within one size
        classes = tuple(c for c in expected.classes if c.representative.size == s)
        filtered = exhaustive_scsf(n, size_filter=s, budget=1 << 28)
        assert filtered == search_oracle.Catalog(n, s, members, classes)


@pytest.mark.parametrize("n", [*range(1, 61), 64, 68])
def test_catalog_leaves_match_skip_take_oracle(n):
    for orbits, start in _catalog_searches(n):
        expected = scsf_skip_take(n, orbits, start)
        assert sorted(_scsf_search(n, [(orbits, start)], None, 1)) == expected
        sizes = {bits.bit_count() for bits in expected}
        # every size that occurs, and sizes that admit nothing
        for s in sorted(sizes | {0, 1, 2, n // 2, n}):
            leaves = _scsf_search(n, [(orbits, start)], s, 1)
            assert sorted(leaves) == scsf_skip_take(n, orbits, start, s), (n, s)


@pytest.mark.parametrize("search", [0, 1], ids=["holding_1", "no_unit"])
def test_catalog_leaves_match_uncut_search(search):
    # past the skip/take oracle's reach: the search with neither cut
    n = 72
    orbits, start = _catalog_searches(n)[search]
    assert sorted(_scsf_search(n, [(orbits, start)], None, 1)) == scsf_uncut(
        n, orbits, start
    )


def _record_shards(monkeypatch):
    """Record each _scsf_search call as (n, searches, size_filter, shards),
    the shards being those its run_sharded call receives."""
    calls = []
    search, run = search_oracle._scsf_search, search_oracle.run_sharded

    def recording_search(n, searches, size_filter, workers):
        calls.append((n, searches, size_filter, []))
        return search(n, searches, size_filter, workers)

    def recording_run(fn, shards, workers):
        assert fn is _scsf_dfs
        calls[-1][3].extend(shards)
        return run(fn, shards, workers)

    monkeypatch.setattr(search_oracle, "_scsf_search", recording_search)
    monkeypatch.setattr(search_oracle, "run_sharded", recording_run)
    return calls


def test_shards_are_sum_free_search_nodes(monkeypatch):
    calls = _record_shards(monkeypatch)
    for n in range(1, 41):
        exhaustive_scsf(n)
    characterization_probe(43, 12)
    for t in range(5, 9):
        verify_st_equivalence(14 * t - 1, 4 * t)
    assert len(calls) == 45
    for n, searches, size_filter, shards in calls:
        assert len(shards) <= 64
        for shard in shards:
            s_bits, ss_bits = shard[5:7]
            assert (shard[0], shard[7]) == (n, size_filter)
            assert ss_bits == sumset_per_run(s_bits, s_bits, n)
            assert not s_bits & ss_bits
        for orbits, start in searches:
            # shards run in choice order, which numbers orbit 0 by the low
            # bit, while one search takes the later orbits first; so the
            # leaves agree as lists in bit order
            joined = [
                leaf
                for shard in shards
                if shard[1] is orbits
                for leaf in _scsf_dfs(*shard)
            ]
            ss_bits = sumset_per_run(start, start, n)
            whole = [] if start & ss_bits else _scsf_dfs(
                n, orbits, *_search_tables(n, orbits), 0, start, ss_bits, size_filter
            )
            assert sorted(joined) == sorted(whole), (n, size_filter)
    # at n = 40, 39 of the 64 choices are not sum-free and are not dispatched
    assert len(calls[39][3]) == 25


def test_window_leaves_match_skip_take_oracle():
    # the theorem-valid pairs, then st equiv at t = 12 (n = 14t - 1, s = 4t),
    # where the coverability cut drops most of the nodes
    for n, s in theorem_valid_pairs() + [(167, 48)]:
        orbits, central = _window_search(n, s, (n - 3 * s + 1) // 2)
        for size_filter in (s, None):
            leaves = _scsf_search(n, [(orbits, central)], size_filter, 1)
            expected = scsf_skip_take(n, orbits, central, size_filter)
            assert sorted(leaves) == expected, (n, s, size_filter)


def test_catalog_size_filter_consistent():
    full = exhaustive_scsf(22)
    for s in {m.size for m in full.members}:
        filtered = exhaustive_scsf(22, size_filter=s)
        assert filtered.size_filter == s
        assert [m.bits for m in filtered.members] == [
            m.bits for m in full.members if m.size == s
        ]


def test_catalog_workers_agree():
    # one worker runs the prefix shards in-process, three run them in a pool;
    # both give what one unsharded depth-first search (no prefix) finds
    for n in range(1, 31):
        for size_filter in (None, 4, 6):
            single = exhaustive_scsf(n, size_filter)
            orbits = _pair_orbits(n)
            shard = (n, orbits, *_search_tables(n, orbits), 0, 0, 0, size_filter)
            unsharded = sorted(_scsf_dfs(*shard))
            assert [m.bits for m in single.members] == unsharded
            assert exhaustive_scsf(n, size_filter, workers=3) == single


@pytest.mark.parametrize("size_filter", [-1, -40])
def test_catalog_refuses_negative_size_filter(size_filter):
    with pytest.raises(ParameterError, match="size filter"):
        exhaustive_scsf(40, size_filter)


def test_catalog_budget_refusal():
    with pytest.raises(BudgetExceededError) as exc:
        exhaustive_scsf(30, budget=1 << 10)
    assert exc.value.required == 1 << 15


# --- literal special-set re-enumeration ---


@pytest.mark.parametrize("t", range(1, 7))
def test_brute_special_matches_streamed(t):
    assert brute_special(t) == enumerate_special(t)


# --- S_T equivalence sweep against the per-window oracle ---


def test_equivalence_matches_per_window_oracle():
    # the theorem-valid pairs of acceptance criterion 1, then one t = 8 pair
    pairs = theorem_valid_pairs() + [(111, 32)]
    assert len(pairs) == 309
    for n, s in pairs:
        assert verify_st_equivalence(n, s) == equivalence_per_window(n, s), (n, s)


def _drop_window_from_specials(monkeypatch, mask):
    honest = search_oracle._special_dfs
    monkeypatch.setattr(
        search_oracle, "_special_dfs", lambda t: [m for m in honest(t) if m != mask]
    )


def _drop_window_from_group_side(monkeypatch, mask):
    honest = search_oracle._scsf_dfs

    def lossy(*shard):
        # at (61, 18) the window T sits in bits 18 .. 25 of S_T
        return [bits for bits in honest(*shard) if bits >> 18 & 0xFF != mask]

    monkeypatch.setattr(search_oracle, "_scsf_dfs", lossy)


@pytest.mark.parametrize(
    "drop",
    [_drop_window_from_specials, _drop_window_from_group_side],
    ids=["special_side", "group_side"],
)
def test_equivalence_lists_the_window_the_sides_disagree_on(monkeypatch, drop):
    # (61, 18) has t = 4, so windows are 8-bit masks; lose one valid
    # window on one side and exactly that window must come back
    window = enumerate_special(4).sets[1]
    drop(monkeypatch, window.mask)
    report = verify_st_equivalence(61, 18)
    assert not report.ok
    assert report.counterexamples == (window.members,)
    assert report.candidates == 256


# --- maximum sum-free sets ---


def test_max_sum_free_z11():
    catalog = exhaustive_max_sum_free(11)
    assert catalog.max_size == 4
    assert len(catalog.members) == 5
    assert [c.representative.elements() for c in catalog.classes] == [[4, 5, 6, 7]]
    assert catalog.classes[0].orbit_size == 5


def test_max_sum_free_z13():
    catalog = exhaustive_max_sum_free(13)
    assert catalog.max_size == 4
    reps = [c.representative.elements() for c in catalog.classes]
    assert reps == [[5, 6, 7, 8], [4, 6, 7, 9], [6, 7, 8, 9]]
    assert sum(c.orbit_size for c in catalog.classes) == len(catalog.members)


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
def test_max_sum_free_matches_dumb_oracle(p):
    all_sum_free = [
        CyclicSet(p, bits)
        for bits in range(1 << p)
        if is_sum_free(CyclicSet(p, bits))
    ]
    best = max(m.size for m in all_sum_free)
    expect = sorted(m.bits for m in all_sum_free if m.size == best)
    catalog = exhaustive_max_sum_free(p)
    assert catalog.max_size == best
    assert [m.bits for m in catalog.members] == expect


@pytest.mark.parametrize("p", [p for p in range(3, 44) if is_prime(p)])
def test_max_sum_free_classes_match_per_member_oracle(p):
    catalog = exhaustive_max_sum_free(p)
    assert catalog.classes == classes_per_member(catalog.members)


@pytest.mark.parametrize("p", [p for p in range(3, 54) if is_prime(p)])
def test_max_sum_free_matches_search_from_empty(p):
    # p = 47 and 53 are past the default budget
    assert exhaustive_max_sum_free(p, budget=53) == max_sum_free_from_empty(p)


@pytest.mark.parametrize("p", [p for p in range(3, 48) if is_prime(p)])
def test_max_sum_free_catalog_has_the_known_maximum(p):
    # the largest sum-free subsets of Z_p have (p + 1) // 3 members; for
    # p = 3k + 2 they are the dilates of the middle third [k + 1, 2k + 1],
    # which u and -u give alike
    catalog = exhaustive_max_sum_free(p, budget=47)
    assert catalog.max_size == (p + 1) // 3
    for member in catalog.members:
        assert is_sum_free(member) and member.size == catalog.max_size
    if p % 3 == 2:
        assert len(catalog.members) == (p - 1) // 2


def test_max_sum_free_rejects_bad_p():
    with pytest.raises(DomainError):
        exhaustive_max_sum_free(9)
    with pytest.raises(DomainError):
        exhaustive_max_sum_free(2)
    with pytest.raises(BudgetExceededError):
        exhaustive_max_sum_free(47)


# --- depth ---


def _middle_orbits(n):
    # the orbits {x, n - x} with n/3 < x <= n/2: their union is sum-free
    return [o for o in _pair_orbits(n) if 3 * ((o & -o).bit_length() - 1) > n]


def test_catalog_search_takes_a_chain_of_every_orbit():
    # at n = 6m + 2 the m + 1 middle orbits form the complete set
    # [2m + 1, 4m + 1], and with the size filter at its size the search
    # takes every orbit in turn: 2001 deep, past the default recursion limit
    m = 2000
    n = 6 * m + 2
    orbits = _middle_orbits(n)
    assert len(orbits) == m + 1
    middle = sum(orbits)
    assert middle == ((1 << (2 * m + 1)) - 1) << (2 * m + 1)
    shard = (n, orbits, *_search_tables(n, orbits), 0, 0, 0, middle.bit_count())
    assert _scsf_dfs(*shard) == [middle]
    assert _scsf_search(n, [(orbits, 0)], middle.bit_count(), 1) == [middle]


def _recursion_depth():
    """The interpreter's recursion depth at the caller: the limit less the
    calls that still fit, counted by recursing until the limit stops it.
    C calls under the caller count too, so frames alone fall short."""

    def probe(calls):
        try:
            return probe(calls + 1)
        except RecursionError:
            return calls

    return sys.getrecursionlimit() - probe(0)


def test_searches_run_within_a_few_frames():
    # the loops need 6 calls of headroom here; the recursive searches they
    # replaced took 14 to 28 frames, one per window position, per member or
    # per orbit taken
    expected = (
        special_unpruned(12),
        catalog_all_orbits(44),
        max_sum_free_from_empty(43),
    )
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(_recursion_depth() + 10)
    try:
        got = (
            enumerate_special(12),
            exhaustive_scsf(44),
            exhaustive_max_sum_free(43),
        )
    finally:
        sys.setrecursionlimit(limit)
    assert got == expected


def test_max_sum_free_leaves_come_in_the_recursion_order():
    # the best-size prune depends on the order in which leaves are found,
    # so the same leaves in the same order pin both the order and the prune
    for p in (q for q in range(3, 60) if is_prime(q)):
        inv2 = pow(2, -1, p)
        allowed = ((1 << p) - 1) & ~0b111 & ~(1 << inv2)
        expected = []
        _max_sum_free_extend(p, inv2, 0b10, 1 << (p - 1), 1, allowed, [0], expected)
        assert _max_sum_free_leaves(p) == expected, p


# --- characterization probes ---


def test_probe_p31_exact():
    report = characterization_probe(31, 10)
    assert report.t == 1
    assert report.definition_valid and report.theorem_valid
    assert report.special_count == 1
    assert report.catalog_count == report.construction_count == 15
    assert report.matched_count == 15
    assert report.exact_match
    assert report.predicted is None  # no applicable size class


def test_probe_p29_definition_only():
    report = characterization_probe(29, 8)
    assert report.t == 3
    assert report.definition_valid and not report.theorem_valid
    assert report.catalog_count == 21
    assert report.construction_count == 14
    assert report.matched_count == 14
    assert len(report.catalog_only) == 7
    # every construction output lands in the catalog even outside the range
    assert report.construction_only == ()
    assert not report.exact_match
    assert report.predicted is not None
    assert report.predicted.count == 28


def test_probe_p43_prediction_matches():
    report = characterization_probe(43, 12)
    assert report.t == 4
    assert report.catalog_count == report.construction_count == 84
    assert report.exact_match
    assert report.predicted.count == 84
    assert report.predicted.size == 12


@pytest.mark.parametrize("p,s", [(29, 8), (31, 10), (37, 12), (41, 12), (43, 12)])
def test_probe_prediction_is_predicted_scsf_count(p, s):
    # the probe reuses its own enumeration for the prediction
    report = characterization_probe(p, s)
    if report.predicted is not None:
        assert report.predicted.t == report.t
        assert report.predicted == predicted_scsf_count(p, report.predicted.r)


@pytest.mark.parametrize("p", [p for p in range(5, 62) if is_prime(p)])
def test_probe_predicts_exactly_on_the_size_class_windows(p):
    # p = 3k + 1 has the windows t = 3r + 1 and p = 3k + 2 the windows
    # t = 3r, r >= 1; 2**30 admits every catalog here and the windows up
    # to t = 16, and a probe that it refuses is skipped
    budget = 1 << 30
    predictions = 0
    for s in range(1, p + 1):
        try:
            report = characterization_probe(p, s, budget=budget)
        except BudgetExceededError:
            continue
        t = report.t
        if t is not None and p % 3 == 1 and t % 3 == 1 and t >= 4:
            r = (t - 1) // 3
        elif t is not None and p % 3 == 2 and t % 3 == 0:
            r = t // 3
        else:
            assert report.predicted is None
            continue
        assert report.predicted == predicted_scsf_count(p, r, budget=budget)
        predictions += 1
    assert predictions > 0 or p < 13


# every (p, s), p an odd prime <= 43, where the construction is defined
DEFINED_PROBES = [
    (p, s)
    for p in range(3, 44)
    if is_prime(p)
    for s in range(1, p + 1)
    if p - 3 * s + 1 > 0 and (p - 3 * s + 1) % 2 == 0 and p <= 4 * s - 3
]


@pytest.mark.parametrize("p, s", DEFINED_PROBES)
def test_probe_construction_matches_per_unit_dilates(p, s):
    report = characterization_probe(p, s)
    assert report.definition_valid
    construction = construction_dilates(p, s)
    catalog = {member.bits for member in exhaustive_scsf(p, size_filter=s).members}
    assert report.construction_count == len(construction)
    assert report.matched_count == len(construction & catalog)
    assert report.construction_only == tuple(
        CyclicSet(p, bits) for bits in sorted(construction - catalog)
    )


def test_probe_no_window():
    # p - 3s + 1 < 0: no offset window exists at this size
    report = characterization_probe(13, 6)
    assert report.t is None
    assert report.construction_count == 0
    assert report.catalog_count == 0


def test_probe_rejects_composite():
    with pytest.raises(DomainError):
        characterization_probe(33, 10)
