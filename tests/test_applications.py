"""Cayley graph, partition, and process-simulation tests.

Graph goldens are small enough to check by hand; simulation values are
pinned from seeded runs and double as determinism regressions.
"""

import pytest

from sumfree.applications import (
    GraphProperties,
    ProcessConfig,
    cayley_graph,
    dioid_partition,
    graph_properties,
    simulate_random_sumfree,
)
from sumfree.errors import DomainError, ParameterError
from sumfree.interval_ap_family import IntervalAPParameters, build_small
from sumfree.search_oracle import exhaustive_scsf
from sumfree.st_family import STParameters, TCandidate, build_st
from sumfree.zn_core import CyclicSet


def mk(n, elements):
    return CyclicSet.from_elements(n, elements)


# --- Cayley graphs ---


def test_cayley_z8_block():
    graph = cayley_graph(mk(8, [3, 4, 5]))
    assert graph.n == 8
    assert graph.neighbors(0) == [3, 4, 5]
    assert graph.neighbors(1) == [4, 5, 6]
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


def test_cayley_edge_count():
    graph = cayley_graph(mk(8, [3, 4, 5]))
    assert len(graph.edges()) == 8 * 3 // 2
    assert all(u < v for u, v in graph.edges())


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
    # every symmetric 0-free subset of Z_n is a union of pairs {x, -x}
    pairs = [CyclicSet.from_elements(n, [x, -x]).bits for x in range(1, n // 2 + 1)]
    for choice in range(1 << len(pairs)):
        bits = 0
        for i, pair in enumerate(pairs):
            if choice >> i & 1:
                bits |= pair
        S = CyclicSet(n, bits)
        assert graph_properties(cayley_graph(S)) == _all_vertex_properties(S)


def test_graph_views_match_definition():
    S = mk(13, [1, 5, 8, 12])
    graph = cayley_graph(S)
    for u in range(13):
        assert graph.neighbors(u) == sorted((u + s) % 13 for s in S)
    assert graph.neighbors(-1) == graph.neighbors(12)
    assert graph.edges() == sorted(
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
    config = ProcessConfig(
        horizon=800, trials=600, seed=11, conditioning=mk(2, [1])
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
