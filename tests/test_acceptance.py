"""Acceptance gate: twelve end-to-end criteria, one test each.

Each test evaluates its criterion, records a single pass/fail evidence
line (shown in the terminal summary section), and then asserts.  Time
limits come with the criteria; measured constants are printed so the
frozen regression ceilings stay auditable.
"""

import math
import time

from oracles import bc_interval_check, brute_special, gap_fill_check
from sumfree.applications import (
    ProcessConfig,
    cayley_graph,
    dioid_partition,
    graph_properties,
    simulate_random_sumfree,
)
from sumfree.interval_ap_family import (
    N_MIN,
    IntervalAPParameters,
    build_small,
    density_choice,
    size_ladder,
)
from sumfree.search_oracle import (
    characterization_probe,
    exhaustive_max_sum_free,
    exhaustive_scsf,
)
from sumfree.special_sets import enumerate_special, is_t_special, iter_lower_bound_family
from sumfree.st_family import STParameters, build_st, verify_st_equivalence
from sumfree.zn_core import CyclicSet


def theorem_valid_pairs(max_n=200, max_t=6):
    """All (n, s) with t in [1, max_t], n <= max_n, in the proven range."""
    out = []
    for t in range(1, max_t + 1):
        s = 4 * t  # smallest s with 2n <= 7s - 2 at this t
        while 3 * s + 2 * t - 1 <= max_n:
            out.append((3 * s + 2 * t - 1, s))
            s += 1
    return out


def grid_cells(t_range):
    for t in t_range:
        for a in (11, 14):
            c_size = 2 * t + 2 if a == 11 else 2 * t + 1
            for d in range(2, c_size + 1):
                for k in range(4, 11):
                    yield IntervalAPParameters(t=t, d=d, k=k, a=a)


def test_criterion_01_equivalence_sweep(acceptance_log):
    started = time.perf_counter()
    pairs = theorem_valid_pairs()
    candidates = 0
    failures = []
    for n, s in pairs:
        report = verify_st_equivalence(n, s)
        candidates += report.candidates
        if not report.ok:
            failures.append((n, s, report.counterexamples[:3]))
    elapsed = time.perf_counter() - started
    ok = not failures and elapsed < 60
    acceptance_log(
        f"criterion  1 {'PASS' if ok else 'FAIL'}: {len(pairs)} theorem-valid "
        f"(n,s) pairs, {candidates} candidate windows checked both ways, "
        f"{len(failures)} counterexamples, {elapsed:.1f}s < 60s"
    )
    assert not failures, failures[:3]
    assert elapsed < 60


def test_criterion_02_golden_lists(acceptance_log):
    t3 = {tuple(T) for T in enumerate_special(3).as_lists()}
    t4 = {tuple(T) for T in enumerate_special(4).as_lists()}
    ok3 = t3 == {(0, 2, 4), (0, 3, 4)}
    ok4 = t4 == {(0, 4, 5, 6), (0, 2, 4, 6), (0, 3, 5, 6), (1, 2, 6, 7)}
    brute_ok = all(brute_special(t) == enumerate_special(t) for t in range(1, 9))
    ok = ok3 and ok4 and brute_ok
    acceptance_log(
        f"criterion  2 {'PASS' if ok else 'FAIL'}: documented 3-special and "
        f"4-special lists reproduced exactly; brute force agrees for t in [1,8]"
    )
    assert ok3 and ok4 and brute_ok


def test_criterion_03_lower_bound_family(acceptance_log):
    started = time.perf_counter()
    ok = True
    for t in range(1, 13):
        family = list(iter_lower_bound_family(t))
        distinct = len({T.mask for T in family})
        if distinct != 1 << (t // 3) or not all(is_t_special(T) for T in family):
            ok = False
            break
    elapsed = time.perf_counter() - started
    ok = ok and elapsed < 120
    acceptance_log(
        f"criterion  3 {'PASS' if ok else 'FAIL'}: for t in [1,12] the doubling "
        f"family gives 2^(t//3) distinct t-special sets, {elapsed:.1f}s < 120s"
    )
    assert ok


def test_criterion_04_construction_grid(acceptance_log):
    started = time.perf_counter()
    cells = 0
    for params in grid_cells(range(1, 7)):
        S = build_small(params)  # checked: all three predicates re-verified
        assert S.size == params.size
        assert gap_fill_check(params)
        assert bc_interval_check(params)
        cells += 1
    elapsed = time.perf_counter() - started
    ok = elapsed < 60
    acceptance_log(
        f"criterion  4 {'PASS' if ok else 'FAIL'}: {cells} grid cells built and "
        f"verified; size formula and closed-form sumset checks hold, "
        f"{elapsed:.1f}s < 60s"
    )
    assert ok


def test_criterion_05_ladder_at_scale(acceptance_log):
    started = time.perf_counter()
    moduli = list(range(N_MIN, N_MIN + 501)) + [10**3, 10**4, 10**5]
    c1 = c2 = 0.0
    c3 = -math.inf
    for n in moduli:
        ladder = size_ladder(n)
        first = ladder.rungs[0]
        assert 4 * first.d * first.k + 6 * first.t - first.a == n
        checked = n == 10**5
        for params in ladder.rungs:
            S = build_small(params, checked=checked)
            assert S.size == params.size
        root = math.sqrt(n)
        c1 = max(c1, first.size / root)
        c2 = max(c2, 2 * (2 * first.d - 3) / root)
        c3 = max(c3, (n / 3 - ladder.sizes[-1]) / root)
    elapsed = time.perf_counter() - started
    ok = c1 <= 7.30 and c2 <= 4.00 and c3 <= 6.00 and elapsed < 600
    acceptance_log(
        f"criterion  5 {'PASS' if ok else 'FAIL'}: {len(moduli)} moduli "
        f"rebuilt, all rung sizes verified; measured c1={c1:.4f} <= 7.30, "
        f"c2={c2:.4f} <= 4.00, c3={c3:.4f} <= 6.00, {elapsed:.1f}s < 600s"
    )
    assert ok


def test_criterion_06_density_coverage(acceptance_log):
    grid = [i / 100 for i in range(34)]
    gaps = {}
    for n in (10**4, 10**5):
        worst = 0.0
        for alpha in grid:
            S = build_small(density_choice(n, alpha))
            worst = max(worst, abs(S.size / n - alpha))
        gaps[n] = worst
    ok = gaps[10**4] <= 0.05 and gaps[10**5] <= 0.02
    acceptance_log(
        f"criterion  6 {'PASS' if ok else 'FAIL'}: max density gap over the "
        f"alpha grid: {gaps[10**4]:.4f} <= 0.05 at 10^4, "
        f"{gaps[10**5]:.4f} <= 0.02 at 10^5"
    )
    assert ok


def test_criterion_07_exhaustive_cross_check(acceptance_log):
    catalogs = {}

    def catalog_bits(n):
        if n not in catalogs:
            catalogs[n] = {m.bits for m in exhaustive_scsf(n).members}
        return catalogs[n]

    produced = 0
    # central-interval construction, every special window, n <= 40
    for n, s in theorem_valid_pairs(max_n=40):
        params = STParameters(n, s)
        for T in enumerate_special(params.t).sets:
            S = build_st(params, T)
            assert S.bits in catalog_bits(n), (n, s, S.elements())
            produced += 1
    # interval-plus-progression cells with derived modulus <= 40
    for params in grid_cells(range(1, 4)):
        if params.n > 40:
            continue
        S = build_small(params)
        assert S.bits in catalog_bits(params.n), (params.t, params.d, params.k)
        produced += 1
    tiny_ok = (
        [m.elements() for m in exhaustive_scsf(2).members] == [[1]]
        and exhaustive_scsf(3).members == ()
    )
    ok = produced > 0 and tiny_ok
    acceptance_log(
        f"criterion  7 {'PASS' if ok else 'FAIL'}: {produced} constructed sets "
        f"all present in the exhaustive catalogs (moduli <= 40); n=2 catalog "
        f"is {{{{1}}}}, n=3 catalog is empty"
    )
    assert ok


def test_criterion_08_max_sum_free_fixture(acceptance_log):
    expected = {
        11: (4, [([4, 5, 6, 7], 5)]),
        13: (4, [([5, 6, 7, 8], 6), ([4, 6, 7, 9], 3), ([6, 7, 8, 9], 12)]),
        17: (6, [([6, 7, 8, 9, 10, 11], 8)]),
        19: (6, [([7, 8, 9, 10, 11, 12], 9), ([6, 8, 9, 10, 11, 13], 9),
                 ([8, 9, 10, 11, 12, 13], 18)]),
        23: (8, [([8, 9, 10, 11, 12, 13, 14, 15], 11)]),
    }
    ok = True
    for p, (max_size, classes) in expected.items():
        catalog = exhaustive_max_sum_free(p)
        got = [(c.representative.elements(), c.orbit_size) for c in catalog.classes]
        if catalog.max_size != max_size or sorted(got) != sorted(classes):
            ok = False
            break
    acceptance_log(
        f"criterion  8 {'PASS' if ok else 'FAIL'}: maximum sum-free dilation "
        f"classes reproduced for p in {{11,13,17,19,23}}; one class when "
        f"p = 2 mod 3, three at p = 13 (orbits 6+3+12 = 21 sets)"
    )
    assert ok


def cayley_test_sets():
    """A deterministic spread of verified sets with 8 <= n <= 200."""
    sets = []
    for n in (8, 16, 20, 24):
        sets.extend(exhaustive_scsf(n).members)
    for n, s in [(61, 18), (91, 30), (123, 40), (155, 50), (187, 60)]:
        params = STParameters(n, s)
        sets.append(build_st(params, enumerate_special(params.t).sets[0]))
    for t, d, k, a in [(2, 3, 5, 14), (3, 4, 6, 11), (4, 5, 7, 14),
                       (5, 4, 8, 11), (6, 5, 7, 14)]:
        sets.append(build_small(IntervalAPParameters(t=t, d=d, k=k, a=a)))
    return sets


def test_criterion_09_cayley_graphs(acceptance_log):
    sets = cayley_test_sets()
    moduli = sorted({S.modulus for S in sets})
    for S in sets:
        n = S.modulus
        assert 8 <= n <= 200
        props = graph_properties(cayley_graph(S))
        assert props.regular and props.degree == S.size
        assert props.triangle_free
        assert props.diameter == 2
        assert S.size >= math.sqrt(2 * n) - 2
    ok = len(sets) >= 30
    acceptance_log(
        f"criterion  9 {'PASS' if ok else 'FAIL'}: {len(sets)} graphs over "
        f"moduli {moduli[0]}..{moduli[-1]} are |S|-regular, triangle-free, "
        f"diameter 2, with |S| >= sqrt(2n)-2 throughout"
    )
    assert ok


def test_criterion_10_dioid_partitions(acceptance_log):
    candidates = []
    for p in (5, 7, 11, 13, 17, 19, 23):
        candidates.extend(exhaustive_scsf(p).members)
    for p, s in [(47, 14), (53, 16), (59, 18), (61, 18)]:
        params = STParameters(p, s)
        for T in enumerate_special(params.t).sets:
            candidates.append(build_st(params, T))
    assert candidates
    primes = sorted({S.modulus for S in candidates})
    for S in candidates:
        report = dioid_partition(S)
        assert report.all_axioms_ok, (S.modulus, S.elements())
    ok = primes[0] >= 5 and primes[-1] <= 61
    acceptance_log(
        f"criterion 10 {'PASS' if ok else 'FAIL'}: all three partition axioms "
        f"hold for {len(candidates)} sets over primes {primes[0]}..{primes[-1]}"
    )
    assert ok


def test_criterion_11_process_simulation(acceptance_log):
    config = ProcessConfig(
        horizon=5000, trials=20000, seed=7,
        conditioning=CyclicSet.from_elements(2, [1]),
    )
    report = simulate_random_sumfree(config)
    again = simulate_random_sumfree(config, workers=2)
    bit_exact = (
        (report.contained_trials, report.joined_total)
        == (again.contained_trials, again.joined_total)
        == (4386, 5488043)
    )
    density = report.conditional_density
    rate = report.containment_rate
    ok = bit_exact and 0.23 <= density <= 0.27 and 0.18 <= rate <= 0.26
    acceptance_log(
        f"criterion 11 {'PASS' if ok else 'FAIL'}: N=5000, 20000 trials, "
        f"seed 7: density {density:.4f} in [0.23,0.27], containment "
        f"{rate:.4f} in [0.18,0.26], bit-exact across reruns and worker counts"
    )
    assert ok


def test_criterion_12_asymptotics_probed_not_asserted(acceptance_log):
    probes = {29: 8, 31: 10, 37: 12, 41: 12, 43: 12}
    lines = []
    for p, s in probes.items():
        report = characterization_probe(p, s, workers=4)
        # structured evidence must be present; the asymptotic claim itself
        # is never turned into an assertion in either direction
        assert report.p == p and report.s == s
        assert report.matched_count <= report.catalog_count
        assert report.matched_count <= report.construction_count
        if report.predicted is not None:
            assert report.predicted.asymptotic_claim
        lines.append(
            f"p={p}: catalog {report.catalog_count}, construction "
            f"{report.construction_count}, matched {report.matched_count}"
            + (
                f", predicted {report.predicted.count}"
                if report.predicted is not None
                else ""
            )
        )
    acceptance_log(
        "criterion 12 PASS: probes emitted evidence without deciding the "
        "asymptotic claims; " + "; ".join(lines)
    )
