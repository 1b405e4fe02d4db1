"""Special-set predicate, enumeration, family, and counting tests.

The pruned search is compared against three oracles: the literal
all-subsets brute force and the search without the coverage prune, both
from tests/oracles.py, and the stream over every size-t mask that the
search replaced (``stream_special_masks`` below).
"""

from math import comb

import pytest

from oracles import brute_special, special_unpruned
from sumfree.errors import BudgetExceededError, DomainError, ParameterError
from sumfree.special_sets import (
    enumerate_special,
    is_t_special,
    iter_lower_bound_family,
    lower_bound_family,
    lower_bound_index_range,
    predicted_scsf_count,
)
from sumfree.st_family import (
    TCandidate,
    _is_special_mask,
    st_completeness_condition,
    st_sum_free_condition,
)

# t <= 8 computed once by the brute force below, t = 9..11 by the stream
# over all size-t masks, t = 12..18 by the search with and without the
# coverage prune (they agree), and pinned
G_TABLE = {
    1: 1, 2: 1, 3: 2, 4: 4, 5: 3, 6: 7, 7: 10, 8: 10, 9: 18, 10: 30, 11: 22,
    12: 57, 13: 65, 14: 75, 15: 122, 16: 188, 17: 153, 18: 319,
}


def T(t, members):
    return TCandidate.from_members(t, members)


# --- predicate ---


def test_special_examples():
    assert is_t_special(T(3, [0, 3, 4]))
    assert not is_t_special(T(2, [1, 3]))  # 1+1+1 = 3
    assert not is_t_special(T(3, [0, 4]))  # wrong size
    assert not is_t_special(TCandidate(3, 0))


@pytest.mark.parametrize("t", range(1, 9))
def test_zero_plus_upper_block_is_special(t):
    members = {0} | set(range(t, 2 * t - 1))
    assert is_t_special(T(t, members))


@pytest.mark.parametrize("t", range(1, 9))
def test_zero_fast_agrees_on_its_domain(t):
    # for size-t candidates containing 0, the triple-sum condition implies
    # the coverage condition, so is_t_special reduces to the former there
    for mask in range(1, 1 << (2 * t), 2):  # odd masks contain 0
        cand = TCandidate(t, mask)
        if cand.size == t and st_sum_free_condition(cand):
            assert st_completeness_condition(cand)


def stream_special_masks(t):
    """Every size-t mask of width 2t in ascending order (Gosper's hack), filtered."""
    width = 2 * t
    m = (1 << t) - 1
    top = m << (width - t)
    out = []
    while True:
        if _is_special_mask(m, t):
            out.append(m)
        if m == top:
            return out
        c = m & -m
        r = m + c
        m = r | (((m ^ r) >> 2) // c)


# --- enumeration ---


def test_enumerate_tiny():
    assert enumerate_special(1).as_lists() == [[0]]
    assert enumerate_special(2).as_lists() == [[0, 2]]
    assert enumerate_special(3).as_lists() == [[0, 2, 4], [0, 3, 4]]


def test_enumerate_t4():
    enum = enumerate_special(4)
    assert enum.g == 4
    # ascending bit-mask order
    assert enum.as_lists() == [[0, 2, 4, 6], [0, 3, 5, 6], [0, 4, 5, 6], [1, 2, 6, 7]]
    documented = {(0, 4, 5, 6), (0, 2, 4, 6), (0, 3, 5, 6), (1, 2, 6, 7)}
    assert {tuple(s) for s in enum.as_lists()} == documented


@pytest.mark.parametrize("t,expected", sorted(G_TABLE.items()))
def test_g_table(t, expected):
    # the default budget admits t <= 14
    enum = enumerate_special(t, budget=comb(2 * t, t))
    assert enum.g == expected
    assert all(is_t_special(cand) for cand in enum.sets)
    masks = [cand.mask for cand in enum.sets]
    assert masks == sorted(masks)


@pytest.mark.parametrize("t", range(1, 9))
def test_enumerate_matches_brute_force(t):
    assert enumerate_special(t) == brute_special(t)


@pytest.mark.parametrize("t", range(1, 11))
def test_enumerate_matches_mask_stream(t):
    assert [cand.mask for cand in enumerate_special(t).sets] == stream_special_masks(t)


@pytest.mark.parametrize("t", range(1, 17))
def test_enumerate_matches_unpruned_search(t):
    assert enumerate_special(t, budget=comb(2 * t, t)) == special_unpruned(t)


def test_enumerate_budget_refusal():
    with pytest.raises(BudgetExceededError) as exc:
        enumerate_special(15)
    assert exc.value.required > exc.value.limit
    with pytest.raises(BudgetExceededError):
        enumerate_special(4, budget=10)


def test_enumerate_rejects_bad_t():
    with pytest.raises(ParameterError):
        enumerate_special(0)


# --- doubling family ---


def test_family_t3():
    assert lower_bound_family(3, []).members == (0, 3, 4)
    assert lower_bound_family(3, [2]).members == (0, 2, 4)


def test_family_index_range():
    assert lower_bound_index_range(3) == range(2, 3)
    assert lower_bound_index_range(6) == range(4, 6)


def test_family_rejects_out_of_range():
    with pytest.raises(DomainError):
        lower_bound_family(3, [1])
    with pytest.raises(DomainError):
        lower_bound_family(3, [3])


def test_family_t6_distinct():
    family = list(iter_lower_bound_family(6))
    assert len(family) == 4
    assert len({cand.mask for cand in family}) == 4


@pytest.mark.parametrize("t", range(1, 13))
def test_family_members_are_special_and_distinct(t):
    family = list(iter_lower_bound_family(t))
    assert len(family) == 1 << (t // 3)
    assert len({cand.mask for cand in family}) == len(family)
    assert all(is_t_special(cand) for cand in family)


@pytest.mark.parametrize("t", sorted(G_TABLE))
def test_g_respects_doubling_lower_bound(t):
    assert G_TABLE[t] >= 1 << (t // 3)


@pytest.mark.parametrize("t", range(1, 15))
def test_search_finds_the_doubling_family(t):
    found = set(enumerate_special(t).sets)
    assert all(cand in found for cand in iter_lower_bound_family(t))
    assert len(found) >= 1 << (t // 3)


# --- counting formula ---


def test_predict_p31():
    pc = predicted_scsf_count(31, 1)
    assert (pc.k, pc.t, pc.g, pc.size, pc.count) == (10, 4, 4, 8, 60)
    assert pc.asymptotic_claim
    assert not pc.vacuous


def test_predict_p29():
    pc = predicted_scsf_count(29, 1)  # p = 3*9 + 2
    assert (pc.k, pc.t, pc.g, pc.size, pc.count) == (9, 3, 2, 8, 28)
    assert not pc.vacuous


def test_predict_p11():
    pc = predicted_scsf_count(11, 1)  # p = 3*3 + 2
    assert (pc.k, pc.t, pc.g, pc.size, pc.count) == (3, 3, 2, 2, 10)
    assert not pc.vacuous


def test_predict_vacuous_small_p():
    pc = predicted_scsf_count(7, 1)  # size k - 2r = 0: no such sets
    assert (pc.size, pc.count) == (0, 12)
    assert pc.vacuous


def test_predict_rejects_bad_p():
    with pytest.raises(DomainError):
        predicted_scsf_count(9, 1)
    with pytest.raises(DomainError):
        predicted_scsf_count(3, 1)
    with pytest.raises(ParameterError):
        predicted_scsf_count(31, 0)


def test_predict_budget_threads_through():
    with pytest.raises(BudgetExceededError):
        predicted_scsf_count(31, 5)  # t = 16 exceeds the default budget
