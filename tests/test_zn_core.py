"""Set algebra and predicate tests, including oracle cross-checks.

The sumset oracle here is the naive double loop over element lists; the
library computes sumsets by shifted-OR, so agreement is a real check.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sumfree.errors import (
    DomainError,
    IntervalCoversGroupError,
    ModulusMismatchError,
    NotAUnitError,
)
from sumfree.zn_core import (
    CyclicSet,
    canonical_dilation_class,
    classify,
    dilate,
    dilation_orbit,
    half_range_complete,
    half_range_sum_free,
    interval,
    is_complete,
    is_sum_free,
    is_symmetric,
    negate,
    set_from_json,
    set_to_json,
    sumset,
    sumset_power,
    units,
)


def mk(n, elements):
    return CyclicSet.from_elements(n, elements)


def naive_sumset(n, xs, ys):
    return sorted({(x + y) % n for x in xs for y in ys})


sets_strategy = st.integers(min_value=1, max_value=64).flatmap(
    lambda n: st.tuples(
        st.just(n), st.integers(min_value=0, max_value=(1 << n) - 1)
    )
)


# --- construction and basic protocol ---


def test_cyclic_set_protocol():
    s = mk(8, [3, 4, 5])
    assert len(s) == 3
    assert list(s) == [3, 4, 5]
    assert 4 in s and 6 not in s
    assert 12 in s  # reduced mod 8
    assert s.elements() == [3, 4, 5]
    assert s.complement().elements() == [0, 1, 2, 6, 7]


def test_from_elements_reduces_mod_n():
    assert mk(8, [-3, 11, 5]).elements() == [3, 5]


def test_bad_modulus_and_bits_rejected():
    with pytest.raises(DomainError):
        CyclicSet(0, 0)
    with pytest.raises(DomainError):
        CyclicSet(3, 1 << 3)


def test_set_operators_require_same_modulus():
    with pytest.raises(ModulusMismatchError):
        mk(8, [1]) | mk(9, [1])
    with pytest.raises(ModulusMismatchError):
        sumset(mk(8, [1]), mk(9, [1]))


# --- interval ---


def test_interval_plain():
    assert interval(27, 12, 15).elements() == [12, 13, 14, 15]


def test_interval_central_block():
    assert interval(61, 26, 35).elements() == list(range(26, 36))


def test_interval_wraps():
    assert interval(8, 7, 9).elements() == [0, 1, 7]


def test_interval_cardinality_is_length():
    assert interval(100, -3, 3).size == 7


def test_interval_rejects_bad_endpoints():
    with pytest.raises(DomainError):
        interval(8, 5, 4)
    with pytest.raises(IntervalCoversGroupError):
        interval(8, 0, 7)
    with pytest.raises(IntervalCoversGroupError):
        interval(8, 3, 12)


# --- sumset ---


def test_sumset_z2():
    assert sumset(mk(2, [1]), mk(2, [1])).elements() == [0]


def test_sumset_central_interval_identity():
    # [26,35] + [26,35] in Z_61 lands on [0,9] u [52,60]
    a = interval(61, 26, 35)
    expect = sorted(set(range(0, 10)) | set(range(52, 61)))
    assert sumset(a, a).elements() == expect
    assert sumset(a, a).elements() == naive_sumset(61, a.elements(), a.elements())


def test_sumset_z8_block():
    s = mk(8, [3, 4, 5])
    assert sumset(s, s).elements() == [0, 1, 2, 6, 7]


def test_sumset_empty_is_empty():
    assert sumset(mk(8, []), mk(8, [1, 2])).size == 0


def test_sumset_power_matches_repeated_sumset():
    s = mk(23, [3, 5, 11])
    ss = sumset(s, s)
    assert sumset_power(s, 1).bits == s.bits
    assert sumset_power(s, 2).bits == ss.bits
    assert sumset_power(s, 3).bits == sumset(ss, s).bits
    with pytest.raises(DomainError):
        sumset_power(s, 0)


def test_sumset_matches_naive_oracle_seeded():
    rng = random.Random(0xC0FFEE)
    for _ in range(10_000):
        n = rng.randint(1, 64)
        a = CyclicSet(n, rng.getrandbits(n))
        b = CyclicSet(n, rng.getrandbits(n))
        assert sumset(a, b).elements() == naive_sumset(
            n, a.elements(), b.elements()
        )


@given(sets_strategy)
@settings(max_examples=300, deadline=None)
def test_sumset_with_self_matches_naive(case):
    n, bits = case
    a = CyclicSet(n, bits)
    assert sumset(a, a).elements() == naive_sumset(n, a.elements(), a.elements())


# --- negate / dilate ---


def test_negate_examples():
    assert negate(mk(2, [1])).elements() == [1]
    assert negate(mk(61, [18, 22, 23, 24])).elements() == [37, 38, 39, 43]
    assert negate(mk(8, [])).size == 0


@given(sets_strategy)
@settings(max_examples=300, deadline=None)
def test_negate_is_involution(case):
    n, bits = case
    a = CyclicSet(n, bits)
    assert negate(negate(a)).bits == a.bits


@given(
    st.integers(min_value=1, max_value=300).flatmap(
        lambda n: st.tuples(st.just(n), st.integers(min_value=0, max_value=(1 << n) - 1))
    )
)
@settings(max_examples=300, deadline=None)
def test_negate_matches_definition(case):
    n, bits = case
    a = CyclicSet(n, bits)
    assert negate(a).elements() == sorted((-x) % n for x in a.elements())


def test_dilate_identity_and_negation():
    s = mk(8, [3, 4, 5])
    assert dilate(s, 1).bits == s.bits
    assert dilate(s, 7).bits == negate(s).bits == s.bits  # symmetric set


def test_dilate_z8_by_3():
    out = dilate(mk(8, [3, 4, 5]), 3)
    assert out.elements() == [1, 4, 7]
    assert classify(out) == classify(mk(8, [3, 4, 5]))


def test_dilate_rejects_non_unit():
    with pytest.raises(NotAUnitError):
        dilate(mk(8, [1]), 2)


@given(sets_strategy, st.integers(min_value=1, max_value=63))
@settings(max_examples=300, deadline=None)
def test_dilate_inverse_round_trip(case, d):
    n, bits = case
    a = CyclicSet(n, bits)
    d %= n
    us = units(n)
    if d not in us:
        return
    inv = pow(d, -1, n) if n > 1 else 0
    assert dilate(dilate(a, d), inv).bits == a.bits


@given(sets_strategy)
@settings(max_examples=300, deadline=None)
def test_dilations_preserve_predicates(case):
    n, bits = case
    a = CyclicSet(n, bits)
    props = classify(a)
    for u in units(n):
        assert classify(dilate(a, u)) == props


# --- predicates ---


def test_predicates_z2_singleton():
    s = mk(2, [1])
    assert is_symmetric(s) and is_sum_free(s) and is_complete(s)


def test_predicates_z3_pair():
    s = mk(3, [1, 2])
    assert is_symmetric(s)
    assert not is_sum_free(s)  # 1 + 1 = 2


def test_predicates_z8_block():
    assert classify(mk(8, [3, 4, 5])) == classify(mk(8, [3, 4, 5]))
    props = classify(mk(8, [3, 4, 5]))
    assert (props.symmetric, props.sum_free, props.complete) == (True, True, True)
    assert props.size == 3


def test_z1_empty_set():
    empty = mk(1, [])
    assert is_sum_free(empty)
    assert not is_complete(empty)


@given(sets_strategy)
@settings(max_examples=300, deadline=None)
def test_complete_sum_free_iff_sumset_is_complement(case):
    n, bits = case
    a = CyclicSet(n, bits)
    props = classify(a)
    both = props.sum_free and props.complete
    assert both == (sumset(a, a).bits == a.complement().bits)


@given(sets_strategy)
@settings(max_examples=300, deadline=None)
def test_sum_free_excludes_zero(case):
    n, bits = case
    a = CyclicSet(n, bits)
    if is_sum_free(a):
        assert 0 not in a


# --- half-range shortcuts ---


def test_half_range_z8_block():
    a = mk(8, [3, 4, 5])
    g1 = interval(8, 0, 4)
    assert half_range_sum_free(a, g1) == is_sum_free(a) is True
    assert half_range_complete(a, g1) == is_complete(a) is True


def test_half_range_detects_violation():
    a = mk(3, [1, 2])
    g1 = interval(3, 0, 1)
    assert not half_range_sum_free(a, g1)


def test_half_range_empty_set():
    g1 = interval(8, 0, 4)
    empty = mk(8, [])
    assert half_range_sum_free(empty, g1)
    assert not half_range_complete(empty, g1)


def test_half_range_rejects_bad_inputs():
    with pytest.raises(DomainError):
        half_range_sum_free(mk(8, [1, 2]), interval(8, 0, 4))  # not symmetric
    with pytest.raises(DomainError):
        half_range_sum_free(mk(8, [3, 4, 5]), interval(8, 0, 2))  # not a half-cover


@given(sets_strategy)
@settings(max_examples=300, deadline=None)
def test_half_range_agrees_with_full_predicates(case):
    n, bits = case
    a = CyclicSet(n, bits)
    sym = CyclicSet(n, bits | negate(a).bits)  # force symmetry
    g1 = CyclicSet.from_elements(n, range(0, -(-n // 2) + 1))
    assert half_range_sum_free(sym, g1) == is_sum_free(sym)
    assert half_range_complete(sym, g1) == is_complete(sym)


# --- dilation classes ---


def test_units_of_8():
    assert units(8) == [1, 3, 5, 7]
    assert units(1) == [0]


def test_canonical_z2():
    assert canonical_dilation_class(mk(2, [1])).elements() == [1]


def test_canonical_is_orbit_invariant():
    s = mk(8, [3, 4, 5])
    canon = canonical_dilation_class(s)
    for u in units(8):
        assert canonical_dilation_class(dilate(s, u)).bits == canon.bits
    assert canonical_dilation_class(canon).bits == canon.bits


def test_orbit_size_divides_unit_count():
    orbit = dilation_orbit(mk(8, [3, 4, 5]))
    assert len(units(8)) % len(orbit) == 0


@given(sets_strategy)
@settings(max_examples=200, deadline=None)
def test_canonical_class_separates_orbits(case):
    n, bits = case
    a = CyclicSet(n, bits)
    canon = canonical_dilation_class(a)
    assert canon.bits in {m.bits for m in dilation_orbit(a)}


# --- JSON encoding ---


def test_json_round_trip():
    s = mk(61, [18, 22, 23, 24])
    obj = set_to_json(s)
    assert obj == {"n": 61, "elements": [18, 22, 23, 24]}
    assert set_from_json(obj).bits == s.bits


@pytest.mark.parametrize(
    "obj",
    [
        [],
        {"n": 8},
        {"elements": []},
        {"n": 0, "elements": []},
        {"n": "8", "elements": []},
        {"n": 8, "elements": 3},
        {"n": 8, "elements": [8]},
        {"n": 8, "elements": [-1]},
        {"n": 8, "elements": [True]},
    ],
)
def test_json_rejects_malformed(obj):
    with pytest.raises(DomainError):
        set_from_json(obj)
