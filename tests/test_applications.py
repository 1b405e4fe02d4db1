"""Cayley graph, partition, and process-simulation tests.

Graph goldens are small enough to check by hand; simulation values are
pinned from seeded runs and double as determinism regressions, and the
bit-sliced process is checked against the one-trial-at-a-time oracle.
"""

import tracemalloc
import warnings

import numpy as np
import pytest
from numpy.random import Philox

from sumfree import applications
from sumfree._parallel import shard_ranges
from sumfree.applications import (
    CayleyGraph,
    GraphProperties,
    ProcessConfig,
    cayley_graph,
    dioid_partition,
    graph_properties,
    simulate_random_sumfree,
)
from sumfree.errors import DomainError, ParameterError
from sumfree.interval_ap_family import IntervalAPParameters, build_small, size_ladder
from sumfree.search_oracle import exhaustive_scsf
from sumfree.st_family import STParameters, TCandidate, build_st
from sumfree.zn_core import CyclicSet, is_sum_free

from oracles import _run_trial, _run_trial_block, cayley_edges


def mk(n, elements):
    return CyclicSet.from_elements(n, elements)


def edge_pairs(graph):
    """The (u, v) pairs of graph.to_edge_list(), in its order."""
    return [tuple(map(int, line.split())) for line in graph.to_edge_list().splitlines()]


def neighbors(graph, u):
    """Neighbours of vertex u, read off the edge list."""
    edges = edge_pairs(graph)
    return sorted({v for a, v in edges if a == u} | {a for a, v in edges if v == u})


# --- Cayley graphs ---


def test_cayley_z8_block():
    graph = cayley_graph(mk(8, [3, 4, 5]))
    assert graph.n == 8
    assert neighbors(graph, 0) == [3, 4, 5]
    assert neighbors(graph, 1) == [4, 5, 6]
    props = graph_properties(graph)
    assert (props.degree, props.regular) == (3, True)
    assert props.triangle_free
    assert props.diameter == 2


def test_cayley_z27_construction():
    S = build_small(IntervalAPParameters(t=1, d=2, k=4, a=11))
    props = graph_properties(cayley_graph(S))
    assert (props.degree, props.triangle_free, props.diameter) == (8, True, 2)


def test_cayley_complete_graph():
    props = graph_properties(cayley_graph(mk(5, [1, 2, 3, 4])))
    assert props.degree == 4
    assert not props.triangle_free
    assert props.diameter == 1


def test_cayley_disconnected():
    props = graph_properties(cayley_graph(mk(6, [2, 4])))
    assert props.diameter is None


def test_cayley_rejects_bad_generators():
    with pytest.raises(DomainError):
        cayley_graph(mk(8, [0, 3, 4, 5]))
    with pytest.raises(DomainError):
        cayley_graph(mk(8, [1, 2]))  # not symmetric


def test_cayley_graph_direct_construction_checks_generators():
    # the checks live in CayleyGraph itself, so graph_properties never sees
    # a directed or looped graph
    with pytest.raises(DomainError):
        CayleyGraph(mk(8, [1]))
    with pytest.raises(DomainError):
        CayleyGraph(mk(8, [0, 3, 4, 5]))
    assert neighbors(CayleyGraph(mk(8, [3, 4, 5])), 0) == [3, 4, 5]


def test_cayley_edge_count():
    graph = cayley_graph(mk(8, [3, 4, 5]))
    edges = edge_pairs(graph)
    assert len(edges) == 8 * 3 // 2
    assert all(u < v for u, v in edges)


def test_dot_export_c5():
    graph = cayley_graph(mk(5, [2, 3]))
    assert graph.to_dot() == (
        "graph cayley_5 {\n"
        "  0 -- 2;\n"
        "  0 -- 3;\n"
        "  1 -- 3;\n"
        "  1 -- 4;\n"
        "  2 -- 4;\n"
        "}"
    )
    assert graph.to_edge_list() == "0 2\n0 3\n1 3\n1 4\n2 4"


def _symmetric_sets(n):
    """Every symmetric 0-free subset of Z_n: each is a union of pairs {x, -x}."""
    pairs = [CyclicSet.from_elements(n, [x, -x]).bits for x in range(1, n // 2 + 1)]
    for choice in range(1 << len(pairs)):
        bits = 0
        for i, pair in enumerate(pairs):
            if choice >> i & 1:
                bits |= pair
        yield CyclicSet(n, bits)


def test_exports_match_the_edge_oracle():
    # the empty set of each n gives the edgeless graph
    graphs = [cayley_graph(S) for n in range(1, 15) for S in _symmetric_sets(n)]
    # a rung in the band of the benchmark's edge-list request
    rung = cayley_graph(build_small(size_ladder(749).rungs[0], checked=False))
    assert len(cayley_edges(rung)) == 64414
    for graph in graphs + [rung]:
        edges = cayley_edges(graph)
        assert graph.to_edge_list() == "\n".join(f"{u} {v}" for u, v in edges)
        assert graph.to_dot() == "\n".join(
            [f"graph cayley_{graph.n} {{"] + [f"  {u} -- {v};" for u, v in edges] + ["}"]
        )


def test_catalog_members_give_triangle_free_diameter_two():
    for member in exhaustive_scsf(16).members:
        props = graph_properties(cayley_graph(member))
        assert props.regular and props.degree == member.size
        assert props.triangle_free
        assert props.diameter == 2
        assert props == _all_vertex_properties(member)


def _all_vertex_properties(S):
    """Oracle: adjacency rows from the definition, a BFS from every vertex
    and a common-neighbour scan over every edge; no vertex-transitivity."""
    n = S.modulus
    rows = [sum(1 << v for v in range(n) if (v - u) % n in S) for u in range(n)]
    degrees = {row.bit_count() for row in rows}
    triangle = any(
        rows[u] & rows[v] for u in range(n) for v in range(u + 1, n) if rows[u] >> v & 1
    )
    diameter = 0
    for source in range(n):
        visited = frontier = 1 << source
        dist = 0
        while visited != (1 << n) - 1:
            reached = 0
            for v in range(n):
                if frontier >> v & 1:
                    reached |= rows[v]
            frontier = reached & ~visited
            if not frontier:
                return GraphProperties(S.size, len(degrees) == 1, not triangle, None)
            visited |= frontier
            dist += 1
        diameter = max(diameter, dist)
    return GraphProperties(S.size, len(degrees) == 1, not triangle, diameter)


@pytest.mark.parametrize("n", range(1, 17))
def test_properties_match_all_vertex_oracle(n):
    for S in _symmetric_sets(n):
        assert graph_properties(cayley_graph(S)) == _all_vertex_properties(S)


def test_graph_views_match_definition():
    S = mk(13, [1, 5, 8, 12])
    graph = cayley_graph(S)
    for u in range(13):
        assert neighbors(graph, u) == sorted((u + s) % 13 for s in S)
    assert edge_pairs(graph) == sorted(
        (u, v) for u in range(13) for v in range(u + 1, 13) if (v - u) % 13 in S
    )


# --- dioid partition ---


def test_partition_z61():
    S = build_st(STParameters(61, 18), TCandidate.from_members(4, [0, 4, 5, 6]))
    report = dioid_partition(S)
    assert report.part_sizes == (1, 18, 42)
    assert report.all_axioms_ok
    assert report.products == (
        (0, 0, (0,)),
        (0, 1, (1,)),
        (0, 2, (2,)),
        (1, 0, (1,)),
        (1, 1, (0, 2)),
        (1, 2, (1, 2)),
        (2, 0, (2,)),
        (2, 1, (1, 2)),
        (2, 2, (0, 1, 2)),
    )


def test_partition_z5():
    report = dioid_partition(mk(5, [2, 3]))
    assert report.part_sizes == (1, 2, 2)
    assert report.all_axioms_ok
    assert report.sums_are_part_unions
    assert report.identity_part_ok
    assert report.negation_closed


def test_partition_covers_group():
    report = dioid_partition(mk(5, [2, 3]))
    zero, s_part, ss_part = report.parts
    assert (zero | s_part | ss_part).size == 5
    assert (s_part & ss_part).size == 0


def test_partition_rejects_bad_inputs():
    with pytest.raises(DomainError):
        dioid_partition(mk(3, [1, 2]))  # p < 5
    with pytest.raises(DomainError):
        dioid_partition(mk(8, [3, 4, 5]))  # composite modulus
    with pytest.raises(DomainError):
        dioid_partition(mk(7, [1, 6]))  # symmetric sum-free but not complete


# --- random sum-free process ---


def test_config_validation():
    with pytest.raises(ParameterError):
        ProcessConfig(horizon=0, trials=1, seed=1)
    with pytest.raises(ParameterError):
        ProcessConfig(horizon=10, trials=0, seed=1)
    with pytest.raises(ParameterError):
        ProcessConfig(horizon=10, trials=1, seed=1 << 64)


def test_simulation_unconditioned_counts_all_trials():
    config = ProcessConfig(horizon=200, trials=50, seed=5)
    report = simulate_random_sumfree(config)
    assert report.contained_trials == 50
    assert 0 < report.joined_total < 50 * 200


def test_simulation_conditioned_z5_golden():
    config = ProcessConfig(
        horizon=3000, trials=4000, seed=11, conditioning=mk(5, [2, 3])
    )
    report = simulate_random_sumfree(config)
    assert report.contained_trials == 80
    assert report.joined_total == 48352
    assert report.containment_rate == 0.02
    assert report.conditional_density == pytest.approx(0.2015, abs=2e-4)
    # limiting conditional density is |S|/(2n) = 2/10
    assert abs(report.conditional_density - 0.2) < 0.01


def test_simulation_deterministic_across_workers():
    # two blocks of trials, so three workers start a pool
    config = ProcessConfig(
        horizon=300, trials=9000, seed=11, conditioning=mk(2, [1])
    )
    one = simulate_random_sumfree(config)
    two = simulate_random_sumfree(config, workers=3)
    assert (one.contained_trials, one.joined_total) == (
        two.contained_trials,
        two.joined_total,
    )


def test_simulation_seed_changes_outcome():
    base = ProcessConfig(horizon=400, trials=300, seed=1, conditioning=mk(2, [1]))
    other = ProcessConfig(horizon=400, trials=300, seed=2, conditioning=mk(2, [1]))
    assert simulate_random_sumfree(base) != simulate_random_sumfree(other)


def test_seeds_from_2_63_up_do_not_share_a_stream():
    # a key passed as a plain list turned both seeds into the float64 2**63
    first = simulate_random_sumfree(ProcessConfig(50, 20, 2**63))
    second = simulate_random_sumfree(ProcessConfig(50, 20, 2**63 + 1))
    assert (first.contained_trials, first.joined_total) != (
        second.contained_trials,
        second.joined_total,
    )


def test_largest_seed_runs_without_a_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = simulate_random_sumfree(ProcessConfig(50, 20, 2**64 - 1))
    assert report.config.trials == 20


def test_simulation_odd_conditioning_band():
    # short version of the headline run: density near 1/4, positive
    # containment probability
    config = ProcessConfig(
        horizon=1500, trials=2000, seed=7, conditioning=mk(2, [1])
    )
    report = simulate_random_sumfree(config)
    assert 0.15 < report.containment_rate < 0.30
    assert 0.22 < report.conditional_density < 0.28


def test_conditional_density_none_when_nothing_contained():
    # a conditioning set the process leaves almost immediately
    config = ProcessConfig(horizon=60, trials=3, seed=0, conditioning=mk(97, [48, 49]))
    report = simulate_random_sumfree(config)
    if report.contained_trials == 0:
        assert report.conditional_density is None
    else:  # pragma: no cover - seed-dependent guard
        assert report.conditional_density > 0


# --- bit-sliced process against the one-trial-at-a-time oracle ---


# name: (horizon, trials, seed, conditioning as (n, residues) or None)
ORACLE_RUNS = {
    "unconditioned": (150, 300, 3, None),
    "odd": (150, 300, 4, (2, [1])),
    "z5": (150, 300, 5, (5, [2, 3])),
    # 131 trials fill two words and 3 lanes of a third; the rest must not count
    "padding-lanes": (90, 131, 6, None),
    "padding-lanes-odd": (90, 131, 6, (2, [1])),
    "horizon-1": (1, 200, 7, None),
    "horizon-2": (2, 200, 8, None),
    "horizon-2-odd": (2, 200, 8, (2, [1])),
    # every trial joins some z < 48 and leaves, so the block stops early
    "every-trial-leaves": (300, 300, 9, (97, [48, 49])),
    # n > N: z itself is the residue
    "modulus-above-horizon": (40, 300, 10, (64, range(1, 64, 2))),
    # the largest seed the configuration accepts
    "top-seed": (90, 131, 2**64 - 1, (2, [1])),
    # one full block and one trial in a second
    "block-boundary": (12, 4097, 11, (2, [1])),
    # the first leave is at step 100, and the trials left first fit in
    # fewer words after step 256
    "late-first-leave": (300, 300, 12, (100, range(1, 100))),
    # the lanes shrink from 5 words to 4 after step 256 and to 3 after 512
    "two-repacks": (600, 300, 14, (100, range(1, 100))),
    # the lanes shrink to 2 words after the first 64 steps
    "repack-top-seed": (150, 300, 2**64 - 1, (2, [1])),
    # a repack after step 64, then a last chunk of 33 steps
    "horizon-mid-chunk": (97, 300, 16, (2, [1])),
    # blocks of one word from the first step: one lane and 63 padding lanes,
    # the benchmark's 60 unconditioned trials, and a full word
    "one-trial": (150, 1, 17, None),
    "one-word": (150, 60, 18, None),
    "one-word-odd": (150, 64, 19, (2, [1])),
    # a sum-free S besides the odd residues, one holding 0 (0 + 0 = 0, so
    # not sum-free) and the empty set, which is sum-free and holds no step
    "sum-free-mod-5": (150, 300, 20, (5, [1, 4])),
    "holds-zero": (150, 300, 21, (4, [0, 1, 3])),
    "empty-set": (60, 300, 22, (5, [])),
}


@pytest.mark.parametrize("name", sorted(ORACLE_RUNS))
def test_simulation_matches_one_trial_oracle(name):
    horizon, trials, seed, conditioning = ORACLE_RUNS[name]
    modulus = member_bits = None
    if conditioning is not None:
        conditioning = mk(*conditioning)
        modulus, member_bits = conditioning.modulus, conditioning.bits
    report = simulate_random_sumfree(
        ProcessConfig(horizon, trials, seed, conditioning)
    )
    expected = _run_trial_block(horizon, seed, 0, trials, modulus, member_bits)
    assert (report.contained_trials, report.joined_total) == expected
    if name in ("every-trial-leaves", "empty-set"):
        assert expected == (0, 0)


@pytest.mark.parametrize("name", sorted(ORACLE_RUNS))
def test_blocks_search_witnesses_exactly_when_s_is_sum_free(monkeypatch, name):
    # a block takes one path, chosen by S alone, and the push path decides a
    # sum-free S as the witness search does
    horizon, trials, seed, conditioning = ORACLE_RUNS[name]
    searches = []
    unwitnessed = applications._unwitnessed

    def recorded(*args):
        searches.append(args)
        return unwitnessed(*args)

    monkeypatch.setattr(applications, "_unwitnessed", recorded)
    if conditioning is None:
        simulate_random_sumfree(ProcessConfig(horizon, trials, seed))
        assert not searches
        return
    conditioning = mk(*conditioning)
    simulate_random_sumfree(ProcessConfig(horizon, trials, seed, conditioning))
    sum_free = is_sum_free(conditioning)
    assert bool(searches) == sum_free
    if sum_free:
        modulus, member_bits = conditioning.modulus, conditioning.bits
        pushed = [
            applications._simulate_block(
                horizon, seed, block.start, len(block), modulus, member_bits, False
            )
            for block in shard_ranges(trials)
        ]
        expected = _run_trial_block(horizon, seed, 0, trials, modulus, member_bits)
        assert tuple(map(sum, zip(*pushed))) == expected


def _witnessed_by_all_pairs(joined, targets, need):
    """need with the lanes cleared that some pair (i, z - i), 1 <= i < z,
    of joined rows holds, row by row."""
    out = need.copy()
    for r, z in enumerate(targets.tolist()):
        for i in range(1, z):
            out[r] &= ~(joined[i] & joined[z - i])
    return out


@pytest.mark.parametrize("slab_bytes", [64, applications._WITNESS_SLAB_BYTES])
@pytest.mark.parametrize("words", [1, 3])
def test_witness_search_matches_all_pairs(monkeypatch, words, slab_bytes):
    # rows one bit in 12 dense leave most lanes of a large z witnessed and
    # some not, so the windows double up to z / 2; lane 5 is joined nowhere,
    # so it is never witnessed; 64 bytes cap windows at 64 // (8 words + 8)
    # values and gather one row at a time
    monkeypatch.setattr(applications, "_WITNESS_SLAB_BYTES", slab_bytes)
    rng = np.random.default_rng(words)
    size = 400
    bits = rng.random((size, words, 64)) < 1 / 12
    bits[0] = False
    bits[:, 0, 5] = False
    joined = np.packbits(bits, axis=-1, bitorder="little").view("<u8")
    joined = joined.reshape(size, words).astype(np.uint64)
    targets = np.concatenate([[1, 2, 3, 17, 33, 34], rng.integers(1, size, 60)])
    need = rng.integers(0, 1 << 63, (len(targets), words), dtype=np.uint64) << 1
    need[:, 0] |= 1 << 5
    got = applications._unwitnessed(joined, targets, need)
    assert got.tolist() == _witnessed_by_all_pairs(joined, targets, need).tolist()
    # every row keeps lane 5, and some rows past the first three windows
    # keep other lanes too, so their scan ran up to z / 2
    assert all(row[0] >> 5 & 1 for row in got.tolist())
    big = targets > 2 * (16 + 32 + 64)
    assert (got[big] & ~np.uint64(1 << 5)).any()
    assert (got[big] != need[big]).any()


@pytest.mark.parametrize(
    "name", ["unconditioned", "odd", "z5", "padding-lanes", "one-word"]
)
def test_growing_block_matches_one_trial_oracle(name):
    # at horizon 1500 a block's rows go 128, 256, 512, 1024, 1500, with a
    # coin draw at each, the first of one 64-bit word per trial
    horizon, trials, seed, conditioning = ORACLE_RUNS[name]
    horizon *= 10
    modulus = member_bits = None
    if conditioning is not None:
        conditioning = mk(*conditioning)
        modulus, member_bits = conditioning.modulus, conditioning.bits
    report = simulate_random_sumfree(
        ProcessConfig(horizon, trials, seed, conditioning)
    )
    expected = _run_trial_block(horizon, seed, 0, trials, modulus, member_bits)
    assert (report.contained_trials, report.joined_total) == expected


def _coin_draws(monkeypatch):
    """Record the trials, the first word and the word count of every
    _philox_words call."""
    draws = []
    philox_words = applications._philox_words

    def recorded(seed, trials, first_word, count):
        draws.append((trials.copy(), first_word, count))
        return philox_words(seed, trials, first_word, count)

    monkeypatch.setattr(applications, "_philox_words", recorded)
    return draws


def _words_drawn(draws):
    """trial -> the stream words drawn for it, in the order drawn."""
    words = {}
    for trials, first, count in draws:
        for trial in trials.tolist():
            words.setdefault(trial, []).extend(range(first, first + count))
    return words


@pytest.mark.parametrize(
    "name",
    ["odd", "late-first-leave", "two-repacks", "repack-top-seed",
     "horizon-mid-chunk", "padding-lanes-odd"],
)
def test_coins_are_drawn_for_the_trials_left(monkeypatch, name):
    # after each chunk the block keeps the trials that have not left when
    # they fit in fewer words, and every trial otherwise; a buffer of one
    # word per lane makes each chunk draw its own words in one call
    horizon, trials, seed, conditioning = ORACLE_RUNS[name]
    conditioning = mk(*conditioning)
    modulus, member_bits = conditioning.modulus, conditioning.bits
    left_at = [
        _run_trial(horizon, seed, trial, modulus, member_bits)[0]
        for trial in range(trials)
    ]
    monkeypatch.setattr(applications, "_COIN_BUFFER_BYTES", 8)
    recorded = _coin_draws(monkeypatch)
    simulate_random_sumfree(ProcessConfig(horizon, trials, seed, conditioning))
    draws = [(trials.tolist(), first, count) for trials, first, count in recorded]
    assert draws[0] == (list(range(trials)), 0, 1)
    repacks = 0
    ran = dict.fromkeys(range(trials), -(-horizon // 64))
    for (before, first, count), (after, following, _) in zip(draws, draws[1:]):
        # the chunks follow on, and the next one starts at step 64 * following
        assert following == first + count
        drawn = 64 * following
        live = [t for t in before if left_at[t] is None or left_at[t] > drawn]
        if -(-len(live) // 64) < -(-len(before) // 64):
            assert after == live
            repacks += 1
            ran.update((t, following) for t in set(before) - set(live))
        else:
            assert after == before
    last, count = draws[-1][1:]
    assert 64 * (last + count - 1) < horizon <= 64 * (last + count)
    assert repacks == (2 if name == "two-repacks" else 1)
    # each trial's words are drawn once, in order, up to the steps it ran
    assert _words_drawn(recorded) == {t: list(range(words)) for t, words in ran.items()}


@pytest.mark.parametrize(
    "horizon, trials, seed, conditioning, calls",
    [(5000, 60, 1, None, 1), (5000, 200, 1, (2, [1]), 2), (5000, 200, 2, (2, [1]), 2)],
)
def test_small_requests_draw_their_coins_in_few_calls(
    monkeypatch, horizon, trials, seed, conditioning, calls
):
    # the buffer takes about 64 KiB of words a call, so 60 trials draw all
    # 79 words of N = 5000 at once, and 200 trials 32 words each before the
    # trials still inside the odd residues draw the rest
    if conditioning is not None:
        conditioning = mk(*conditioning)
    draws = _coin_draws(monkeypatch)
    simulate_random_sumfree(ProcessConfig(horizon, trials, seed, conditioning))
    assert len(draws) == calls
    assert draws[0][0].tolist() == list(range(trials))
    for (before, _, _), (after, _, _) in zip(draws, draws[1:]):
        assert set(after.tolist()) < set(before.tolist())
    # no word is drawn twice or past the horizon's last word
    for words in _words_drawn(draws).values():
        assert words == list(range(len(words)))
        assert len(words) <= -(-horizon // 64)


@pytest.mark.parametrize("slab", [3, applications._PHILOX_SLAB])
@pytest.mark.parametrize("seed", [0, 7, 2**63, 2**64 - 1])
def test_philox_words_match_numpy(monkeypatch, seed, slab):
    # first words on either side of a counter block, and a slab of 3 blocks
    # that ends inside a trial's row; an overflowing numpy scalar would warn
    monkeypatch.setattr(applications, "_PHILOX_SLAB", slab)
    trials = [0, 1, 2**40 - 1, 2**40, 2**40 + 1, 2**64 - 1]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for first, count in [(0, 1), (1, 3), (2, 2), (3, 9), (4, 4), (6, 41), (1021, 7)]:
            words = applications._philox_words(seed, np.array(trials, np.uint64), first, count)
            assert words.shape == (len(trials), count)
            for row, trial in zip(words.tolist(), trials):
                stream = Philox(key=np.array([seed, trial], np.uint64))
                assert row == stream.random_raw(first + count)[first:].tolist()


@pytest.mark.parametrize("buffer_bytes", [8, 8 << 10])
@pytest.mark.parametrize("name", ["odd", "two-repacks", "repack-top-seed"])
def test_streams_continue_across_refills_and_repacks(monkeypatch, name, buffer_bytes):
    # every kernel call of a block continues each stream it draws where the
    # trial's last call stopped, whether the lanes were repacked in between;
    # 8 KiB hold 128 steps of 300 lanes, so a repack after step 64 takes
    # buffer rows that still hold a word, and step 129 on is a second call
    horizon, trials, seed, conditioning = ORACLE_RUNS[name]
    monkeypatch.setattr(applications, "_COIN_BUFFER_BYTES", buffer_bytes)
    calls = []
    philox_words = applications._philox_words

    def recorded(seed, trials, first_word, count):
        words = philox_words(seed, trials, first_word, count)
        calls.append((trials.tolist(), first_word, words.tolist()))
        return words

    monkeypatch.setattr(applications, "_philox_words", recorded)
    simulate_random_sumfree(ProcessConfig(horizon, trials, seed, mk(*conditioning)))
    # trial -> (its numpy stream, the first word not yet drawn from it)
    streams = {}
    for trials, first_word, words in calls:
        for trial, row in zip(trials, words):
            stream, next_word = streams.get(trial, (None, 0))
            stream = stream or Philox(key=np.array([seed, trial], np.uint64))
            assert first_word == next_word
            assert stream.random_raw(len(row)).tolist() == row
            streams[trial] = stream, first_word + len(row)
    assert len(calls) > 1


def test_one_block_allocates_little_beyond_its_three_arrays():
    # 4096 trials at N = 5000 are one block; coins, sums and joined take
    # 24 bytes per step and word, 7.3 MiB, and tracemalloc sees numpy buffers
    config = ProcessConfig(
        horizon=5000, trials=4096, seed=7, conditioning=mk(2, [1])
    )
    tracemalloc.start()
    try:
        simulate_random_sumfree(config)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 16 << 20


def test_one_word_block_keeps_no_old_rows_through_the_copy():
    # 60 trials at N = 50000 are one block of one word; its last chunk
    # copies sums and joined of 50001 rows each (0.38 MiB apiece) and peaks
    # at 1.31 MiB, and the step views would keep the old sums alive through
    # the copy of joined, for 1.55 MiB, if they were not dropped first
    config = ProcessConfig(horizon=50000, trials=60, seed=1)
    tracemalloc.start()
    try:
        simulate_random_sumfree(config)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.4 * (1 << 20)


def test_sum_free_block_gathers_its_witnesses_in_slabs():
    # a full block on the odd residues at N = 5000 keeps no sums and peaks
    # at 1.42 MiB; gathering each window's pairs whole would peak at
    # 6.7 MiB, and the push path peaked at 2.06 MiB
    config = ProcessConfig(
        horizon=5000, trials=4096, seed=7, conditioning=mk(2, [1])
    )
    tracemalloc.start()
    try:
        simulate_random_sumfree(config)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2 << 20


def test_block_memory_follows_the_steps_run():
    # every trial joins some z < 48 and leaves within the first steps, so
    # the block holds its first rows only, not 24 bytes per step and word
    # for all 50000 steps (88.6 MiB)
    config = ProcessConfig(
        horizon=50000, trials=4096, seed=1, conditioning=mk(97, [48, 49])
    )
    tracemalloc.start()
    try:
        report = simulate_random_sumfree(config)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.contained_trials == 0
    assert peak <= 8 << 20


def test_block_repacked_late_stays_within_the_same_memory(monkeypatch):
    # no trial can leave before step 1000, so the full block runs on 64
    # words until its chunk of steps 513..1024 and repacks only then
    config = ProcessConfig(
        horizon=5000, trials=4096, seed=7, conditioning=mk(1000, range(1, 1000))
    )
    draws = _coin_draws(monkeypatch)
    tracemalloc.start()
    try:
        simulate_random_sumfree(config)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the full block draws every word of its first 1024 steps, and fewer
    # trials draw the words after them
    assert sum(count for trials, first, count in draws if len(trials) == 4096) == 16
    later = [len(trials) for trials, first, _ in draws if first >= 16]
    assert later[0] <= 4096 - 64
    assert peak <= 16 << 20
