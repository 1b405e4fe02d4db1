"""Interval-plus-progression construction, solver, ladder, and density tests.

Every constructed set here is re-verified against the zn_core predicates;
solver outputs are checked against the reconstruction identity and hand
computed goldens.
"""

from fractions import Fraction

import pytest

from oracles import bc_interval_check, five_piece_union, gap_fill_check
from sumfree import interval_ap_family
from sumfree.errors import ConstructionError, DomainError, ParameterError
from sumfree.interval_ap_family import (
    N_MIN,
    IntervalAPParameters,
    build_small,
    component_sets,
    density_choice,
    size_ladder,
    solve_parameters,
)
from sumfree.zn_core import CyclicSet, classify, negate


def full_grid():
    for t in range(1, 7):
        for a in (11, 14):
            c_size = 2 * t + 2 if a == 11 else 2 * t + 1
            for d in range(2, c_size + 1):
                for k in range(4, 11):
                    yield IntervalAPParameters(t=t, d=d, k=k, a=a)


# --- parameters ---


def test_parameter_validation():
    with pytest.raises(ParameterError):
        IntervalAPParameters(t=0, d=2, k=4, a=11)
    with pytest.raises(ParameterError):
        IntervalAPParameters(t=1, d=1, k=4, a=11)
    with pytest.raises(ParameterError):
        IntervalAPParameters(t=1, d=2, k=3, a=11)
    with pytest.raises(ParameterError):
        IntervalAPParameters(t=1, d=2, k=4, a=13)


def test_derived_quantities():
    params = IntervalAPParameters(t=1, d=2, k=4, a=11)
    assert params.n == 27
    assert params.c_size == 4  # n odd
    assert params.hypothesis_ok
    assert params.size == 2 * (2 + 4 - 4) + 4

    even = IntervalAPParameters(t=2, d=3, k=5, a=14)
    assert even.n == 58
    assert even.c_size == 5  # n even
    assert even.size == 13


def test_parity_matches_variant():
    assert IntervalAPParameters(t=1, d=2, k=4, a=11).n % 2 == 1
    assert IntervalAPParameters(t=1, d=2, k=4, a=14).n % 2 == 0


# --- components ---


def test_components_n27():
    params = IntervalAPParameters(t=1, d=2, k=4, a=11)
    A, B, C = component_sets(params)
    assert A.elements() == [8]
    assert B.elements() == [10]
    assert C.elements() == [12, 13, 14, 15]


def test_component_cardinalities_and_layout():
    for params in full_grid():
        A, B, C = component_sets(params)
        n, t, d, k = params.n, params.t, params.d, params.k
        assert A.size == d - 1
        assert B.size == k - 3
        assert C.size == params.c_size
        assert max(B) == n // 2 - t - 2 * d + 2  # last element identity
        assert max(B) < n // 2 - t  # B sits strictly left of C


def per_term_progression(params):
    """B's mask one term at a time: b_start + i*d for i < k - 3."""
    n, t, d, k = params.n, params.t, params.d, params.k
    b_start = ((n + 1) // 2 + t + 1) // 2 + 2 * d - 2
    return sum(1 << (b_start + i * d) for i in range(k - 3))


@pytest.mark.parametrize("n", [N_MIN, 12000, 10**5])
def test_progression_matches_the_per_term_oracle_on_the_ladder(n):
    for params in size_ladder(n).rungs:
        assert component_sets(params)[1].bits == per_term_progression(params)


@pytest.mark.parametrize("j", range(5, 80, 10))
def test_progression_matches_the_per_term_oracle_on_density_cells(j):
    # refined cells at small d, with k in the thousands
    params = density_choice(99700, Fraction(j, 240))
    assert component_sets(params)[1].bits == per_term_progression(params)


# --- build ---


def test_build_n27_golden():
    S = build_small(IntervalAPParameters(t=1, d=2, k=4, a=11))
    assert S.elements() == [8, 10, 12, 13, 14, 15, 17, 19]
    assert S.size == 8
    props = classify(S)
    assert props.symmetric and props.sum_free and props.complete


def test_build_rejects_hypothesis_violation():
    params = IntervalAPParameters(t=1, d=5, k=4, a=11)  # |C| = 4 < d = 5
    assert not params.hypothesis_ok
    with pytest.raises(ConstructionError):
        build_small(params)


def test_build_grid_verified():
    for params in full_grid():
        S = build_small(params)  # checked mode re-runs the predicates
        assert S.size == params.size
        assert negate(S).bits == S.bits


def test_build_matches_the_five_piece_oracle_on_the_grid():
    for params in full_grid():
        assert build_small(params).bits == five_piece_union(params)


@pytest.mark.parametrize("n", [N_MIN, 12000, 10**5])
def test_build_matches_the_five_piece_oracle_on_the_ladder(n):
    for params in size_ladder(n).rungs:
        assert build_small(params, checked=False).bits == five_piece_union(params)


@pytest.mark.parametrize("j", range(5, 80, 10))
def test_build_matches_the_five_piece_oracle_on_density_cells(j):
    params = density_choice(99700, Fraction(j, 240))
    assert build_small(params, checked=False).bits == five_piece_union(params)


def test_build_refuses_overlapping_pieces(monkeypatch):
    # C moved down by 2d-2 lands on B's last term: the pieces keep their
    # sizes, so only the size count of the union can see the overlap
    params = IntervalAPParameters(t=3, d=4, k=7, a=14)
    A, B, C = component_sets(params)
    shifted = CyclicSet(params.n, C.bits >> 2 * params.d - 2)
    assert shifted.size == C.size and shifted.bits & B.bits
    monkeypatch.setattr(
        interval_ap_family, "component_sets", lambda _params: (A, B, shifted)
    )
    with pytest.raises(ConstructionError, match="construction pieces overlap"):
        build_small(params, checked=False)


def test_unchecked_build_matches_checked():
    params = IntervalAPParameters(t=3, d=4, k=7, a=14)
    assert build_small(params, checked=False) == build_small(params)


# --- closed-form sumset claims ---


@pytest.mark.parametrize(
    "t,d,k,a",
    [(1, 2, 4, 11), (2, 3, 5, 14), (1, 4, 4, 11)],
)
def test_gap_and_bc_examples(t, d, k, a):
    params = IntervalAPParameters(t=t, d=d, k=k, a=a)
    assert gap_fill_check(params)
    assert bc_interval_check(params)


def test_gap_and_bc_hold_on_grid():
    for params in full_grid():
        assert gap_fill_check(params)
        assert bc_interval_check(params)


# --- parameter solver ---


def test_solver_n1000():
    solved = solve_parameters(1000)
    assert solved == IntervalAPParameters(t=45, d=31, k=6, a=14)
    assert 4 * solved.d * solved.k + 6 * solved.t - solved.a == solved.n == 1000


def test_solver_n10000():
    assert solve_parameters(10000) == IntervalAPParameters(t=69, d=100, k=24, a=14)


def test_solver_n100000():
    assert solve_parameters(100000) == IntervalAPParameters(t=237, d=316, k=78, a=14)


def test_solver_odd_modulus():
    solved = solve_parameters(1001)
    assert solved.a == 11
    assert 4 * solved.d * solved.k + 6 * solved.t - solved.a == solved.n == 1001


def test_solver_postconditions_on_window():
    for n in range(N_MIN, N_MIN + 120):
        solved = solve_parameters(n)
        t0, d0, k0 = solved.t, solved.d, solved.k
        assert 4 * d0 * k0 + 6 * t0 - solved.a == solved.n == n
        assert d0 % 3 == 1 and d0 >= 2
        assert k0 >= 4
        assert t0 >= 1
        assert d0 <= 2 * t0 + 1
        assert 2 * d0 <= 3 * t0 <= 8 * d0


def test_solver_returns_the_first_rung():
    for n in [*range(N_MIN, N_MIN + 201), 10**3, 10**4, 10**5]:
        assert solve_parameters(n) == size_ladder(n).rungs[0]


def test_solver_threshold():
    with pytest.raises(ParameterError, match="below construction threshold"):
        solve_parameters(N_MIN - 1)
    solve_parameters(N_MIN)  # must succeed exactly at the threshold


# --- size ladder ---


def test_ladder_n1000_single_rung():
    ladder = size_ladder(1000)
    assert ladder.sizes == (157,)
    assert ladder.rungs[0].size == 157
    assert len(ladder.rungs) == 1


def test_ladder_n10000():
    ladder = size_ladder(10000)
    assert len(ladder.rungs) == 7
    assert 2 * (2 * ladder.rungs[0].d - 3) == 2 * (2 * 100 - 3)
    assert ladder.sizes == tuple(379 + 394 * i for i in range(7))
    assert ladder.sizes[-1] == 2743


def test_ladder_rungs_all_buildable():
    ladder = size_ladder(1500)
    for params, size in zip(ladder.rungs, ladder.sizes):
        assert params.hypothesis_ok
        S = build_small(params)
        assert S.size == size


def test_ladder_sizes_strictly_increase():
    for n in (N_MIN, 2000, 5000):
        ladder = size_ladder(n)
        sizes = ladder.sizes
        difference = 2 * (2 * ladder.rungs[0].d - 3)
        assert all(b - a == difference for a, b in zip(sizes, sizes[1:]))
        assert sizes == tuple(sorted(set(sizes)))


# --- density and smallest-set corollaries ---


def test_density_alpha_zero_is_base_rung():
    ladder = size_ladder(10000)
    choice = density_choice(10000, 0.0, refine=False)
    assert choice == ladder.rungs[0]


def test_density_ladder_only_quarter():
    choice = density_choice(10000, 0.25, refine=False)
    assert choice.size == 2349  # nearest rung: 379 + 394*5


def test_density_refinement_improves_quarter():
    choice = density_choice(10000, 0.25)
    assert choice.size == 2499
    assert build_small(choice).size == 2499


def test_density_third_is_top_rung():
    choice = density_choice(10000, 1 / 3, refine=False)
    assert choice.size == size_ladder(10000).sizes[-1]


def test_density_rejects_bad_alpha():
    with pytest.raises(DomainError):
        density_choice(10000, -0.01)
    with pytest.raises(DomainError):
        density_choice(10000, 0.4)


def test_smallest_set_sizes():
    # the base rung is the family's smallest set at each n
    assert build_small(size_ladder(1000).rungs[0]).size == 157
    assert build_small(size_ladder(10000).rungs[0]).size == 379


def test_density_gap_shrinks_with_n():
    # max over the alpha grid of |size/n - alpha|, at two scales
    grid = [i / 100 for i in range(34)]
    gaps = {}
    for n in (10**4, 4 * 10**4):
        worst = 0.0
        for alpha in grid:
            choice = density_choice(n, alpha)
            worst = max(worst, abs(choice.size / n - alpha))
        gaps[n] = worst
    # 1/sqrt(n) scaling within a factor of 2: quadrupling n should at
    # least halve the worst gap, up to that factor
    assert gaps[4 * 10**4] <= gaps[10**4]
    assert gaps[10**4] <= 0.05
