"""Central-interval construction tests.

The integer-side conditions are cross-checked in two independent ways:
against naive set-comprehension oracles over small masks, and against the
group-side predicates on the fully built sets.
"""

import itertools

import pytest

from sumfree.errors import BudgetExceededError, DomainError, ParameterError
from sumfree.search_oracle import verify_st_equivalence
from sumfree.st_family import (
    STParameters,
    TCandidate,
    build_st,
    st_completeness_condition,
    st_sum_free_condition,
)
from sumfree.zn_core import classify, interval, is_complete, is_sum_free, negate


def naive_sum_free_condition(members, t):
    return all(
        x + y + z != 2 * t - 1
        for x in members
        for y in members
        for z in members
    )


def naive_completeness_condition(members, t):
    pairs = {x + y for x in members for y in members}
    mirror = {2 * t - 1 - x for x in members}
    need = set(range(2 * t + min(members))) - mirror
    return need <= pairs


def all_candidates(t):
    for mask in range(1 << (2 * t)):
        yield TCandidate(t, mask)


# --- parameters ---


def test_parameters_z61():
    params = STParameters(61, 18)
    assert params.t == 4
    assert params.definition_valid
    assert params.theorem_valid


def test_parameters_parity_violation():
    with pytest.raises(ParameterError, match="odd"):
        STParameters(34, 10)


def test_parameters_empty_window():
    with pytest.raises(ParameterError):
        STParameters(29, 10)  # n - 3s + 1 = 0
    with pytest.raises(ParameterError):
        STParameters(27, 10)  # n - 3s + 1 = -2


def test_definition_valid_without_theorem():
    params = STParameters(67, 18)  # t = 7; 67 <= 69 but 134 > 124
    assert params.definition_valid
    assert not params.theorem_valid


def test_derived_identity():
    for n, s in [(61, 18), (55, 16), (27, 8)]:
        params = STParameters(n, s)
        assert params.s + 2 * params.t - 1 == params.n - 2 * params.s


# --- candidates ---


def test_candidate_members_round_trip():
    T = TCandidate.from_members(4, [0, 4, 5, 6])
    assert T.members == (0, 4, 5, 6)
    assert T.size == 4


def test_candidate_rejects_out_of_range():
    with pytest.raises(ParameterError):
        TCandidate.from_members(4, [8])
    with pytest.raises(ParameterError):
        TCandidate.from_members(4, [-1])


# --- build_st ---


def test_build_z61_golden():
    S = build_st(STParameters(61, 18), TCandidate.from_members(4, [0, 4, 5, 6]))
    expect = sorted({18, 22, 23, 24} | set(range(26, 36)) | {37, 38, 39, 43})
    assert S.elements() == expect
    assert S.size == 18
    props = classify(S)
    assert props.symmetric and props.sum_free and props.complete


def test_build_empty_window_size():
    S = build_st(STParameters(61, 18), TCandidate(4, 0))
    assert S.size == 4 * 18 - 61 - 1  # 10


def test_build_full_window_size():
    S = build_st(STParameters(61, 18), TCandidate.from_members(4, range(8)))
    assert S.size == 26


def test_build_rejects_mismatched_t():
    with pytest.raises(ParameterError):
        build_st(STParameters(61, 18), TCandidate(3, 0))


def test_build_rejects_definition_invalid():
    params = STParameters(73, 18)  # 73 > 4*18 - 3 = 69
    assert not params.definition_valid
    with pytest.raises(ParameterError):
        build_st(params, TCandidate(params.t, 0))


@pytest.mark.parametrize("n,s", [(61, 18), (55, 16), (27, 8), (45, 12)])
def test_build_symmetric_and_confined(n, s):
    params = STParameters(n, s)
    central = set(range(n - 2 * s + 1, 2 * s))
    for T in all_candidates(params.t):
        S = build_st(params, T)
        shifted = {s + x for x in T.members}
        assert S.elements() == sorted(central | shifted | {n - y for y in shifted})
        assert negate(S).bits == S.bits
        assert all(s <= x <= n - s for x in S)
        assert S.size == 4 * s - n - 1 + 2 * T.size


# --- integer-side conditions ---


def test_sum_free_condition_examples():
    assert st_sum_free_condition(TCandidate.from_members(4, [0, 4, 5, 6]))
    assert not st_sum_free_condition(TCandidate.from_members(2, [0, 1]))
    assert st_sum_free_condition(TCandidate(4, 0))


def test_completeness_condition_examples():
    assert st_completeness_condition(TCandidate.from_members(3, [0, 2, 4]))
    assert not st_completeness_condition(TCandidate.from_members(1, [1]))
    assert st_completeness_condition(TCandidate.from_members(1, [0]))


def test_completeness_condition_rejects_empty():
    with pytest.raises(DomainError):
        st_completeness_condition(TCandidate(3, 0))


@pytest.mark.parametrize("t", [1, 2, 3, 4])
def test_conditions_match_naive_oracles(t):
    for T in all_candidates(t):
        members = T.members
        assert st_sum_free_condition(T) == naive_sum_free_condition(members, t)
        if members:
            assert st_completeness_condition(T) == naive_completeness_condition(
                members, t
            )


@pytest.mark.parametrize("t", [1, 2, 3, 4, 5])
def test_sum_free_condition_matches_group_side(t):
    # Lemma needs only a definition-valid pair; s = 4t keeps both flags on.
    params = STParameters(14 * t - 1, 4 * t)
    for T in all_candidates(t):
        S = build_st(params, T)
        assert st_sum_free_condition(T) == is_sum_free(S)


@pytest.mark.parametrize("t", [1, 2, 3, 4, 5])
def test_completeness_condition_matches_group_side(t):
    params = STParameters(14 * t - 1, 4 * t)
    assert params.theorem_valid
    for T in all_candidates(t):
        if T.mask == 0:
            continue
        S = build_st(params, T)
        assert st_completeness_condition(T) == is_complete(S)


# --- exhaustive equivalence sweep ---


def test_equivalence_z61():
    report = verify_st_equivalence(61, 18)
    assert report.ok
    assert report.candidates == 256
    assert report.special_count == 4
    assert report.counterexamples == ()


def test_equivalence_z55():
    report = verify_st_equivalence(55, 16)
    assert report.ok
    assert report.special_count == 4


def test_equivalence_rejects_bad_parameters():
    with pytest.raises(ParameterError):
        verify_st_equivalence(34, 10)
    with pytest.raises(ParameterError):
        verify_st_equivalence(67, 18)  # outside the proven range


def test_equivalence_budget_refusal():
    with pytest.raises(BudgetExceededError) as exc:
        verify_st_equivalence(61, 18, budget=100)
    assert exc.value.required == 256
    assert exc.value.limit == 100


def test_equivalence_workers_agree():
    assert verify_st_equivalence(61, 18, workers=2) == verify_st_equivalence(61, 18)
    # t = 8: both searches run 64 shards in-process, then in pools
    single = verify_st_equivalence(111, 32)
    assert (single.t, single.candidates, single.ok) == (8, 4**8, True)
    for workers in (2, 3):
        assert verify_st_equivalence(111, 32, workers=workers) == single
