"""Set algebra and predicate tests, including oracle cross-checks.

The library computes sumsets by progressions of runs: consecutive runs
of one length, one gap apart, spread the other operand by doubling
shift-ORs, first over a run and then over the run starts.  Three oracles
check it: the naive double loop over element lists, the per-member
shifted OR (one wrapped rotation per member), and ``sumset_per_run``
from ``oracles.py`` (one doubling spread and rotation per run), the
kernel that the progression walk replaced.  The byte-table mirror behind
negation and the canonical dilation order is checked against the
reversed membership string, and the rotation against the per-bit
definition.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import canonical_dilation_class, first_difference, sumset_per_run
from sumfree._bits import (
    _WALK_MAX_BYTES,
    bit_positions,
    bits_from_positions,
    mirror,
    positions_text,
    rotate,
)
from sumfree.errors import (
    DomainError,
    IntervalCoversGroupError,
    ModulusMismatchError,
    NotAUnitError,
)
from sumfree.interval_ap_family import build_small, density_choice, size_ladder
from sumfree.zn_core import (
    CyclicSet,
    classify,
    dilate,
    interval,
    is_complete,
    is_sum_free,
    is_symmetric,
    negate,
    set_from_json,
    set_to_json,
    sumset,
    units,
    _MAX_MODULUS,
)


def mk(n, elements):
    return CyclicSet.from_elements(n, elements)


def naive_sumset(n, xs, ys):
    return sorted({(x + y) % n for x in xs for y in ys})


def shift_or_sumset_bits(a_bits, b_bits, n):
    """The per-member shifted OR: one wrapped rotation of B per member of A."""
    if a_bits == 0 or b_bits == 0:
        return 0
    if a_bits.bit_count() > b_bits.bit_count():
        a_bits, b_bits = b_bits, a_bits
    acc = 0
    for x in bit_positions(a_bits):
        if x:
            # wrapped rotation of B by x; overflow re-enters via the right shift
            acc |= (b_bits << x) | (b_bits >> (n - x))
        else:
            acc |= b_bits
    return acc & ((1 << n) - 1)


def string_mirror_bits(bits, width):
    """Bit i moves to bit width - 1 - i: the membership string reversed."""
    return int(format(bits, f"0{width}b")[::-1], 2)


def assert_sumset_matches_oracles(n, a_bits, b_bits):
    a, b = CyclicSet(n, a_bits), CyclicSet(n, b_bits)
    naive = naive_sumset(n, a.elements(), b.elements())
    for x, y in ((a, b), (b, a)):
        got = sumset(x, y)
        assert got.elements() == naive
        assert got.bits == shift_or_sumset_bits(x.bits, y.bits, n)
        assert got.bits == sumset_per_run(x.bits, y.bits, n)


@st.composite
def run_structured_bits(draw, n):
    """A union of a few cyclic intervals and d-step progressions in Z_n."""
    members = []
    for _ in range(draw(st.integers(min_value=0, max_value=4))):
        start = draw(st.integers(min_value=0, max_value=n - 1))
        count = draw(st.integers(min_value=1, max_value=n))
        step = draw(st.sampled_from([1, draw(st.integers(min_value=1, max_value=n))]))
        members.extend(start + i * step for i in range(count))
    return CyclicSet.from_elements(n, members).bits


PROGRESSION_SHAPES = (
    "equal",
    "unequal gaps",
    "unequal lengths",
    "two runs",
    "to the top",
)


@st.composite
def run_progression_bits(draw, n):
    """A union of up to three progressions of runs, each inside [0, n).

    A progression is m runs of length L whose starts lie D > L apart.
    Each is drawn in one shape: as such, with the gaps or the run lengths
    varied by up to 2, as two runs, or with its last run ending at n - 1.
    """
    bits = 0
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        shape = draw(st.sampled_from(PROGRESSION_SHAPES))
        length = draw(st.integers(min_value=1, max_value=n))
        gap = draw(st.integers(min_value=length + 1, max_value=2 * length + 8))
        most = 1 + (n - length) // (gap + 2)
        count = min(2, most) if shape == "two runs" else draw(
            st.integers(min_value=1, max_value=most)
        )
        gaps = [gap] * (count - 1)
        lengths = [length] * count
        if shape == "unequal gaps":
            gaps = [gap + draw(st.integers(min_value=0, max_value=2)) for _ in gaps]
        if shape == "unequal lengths":
            lengths = [
                length - draw(st.integers(min_value=0, max_value=min(2, length - 1)))
                for _ in lengths
            ]
        offsets = [0]
        for g in gaps:
            offsets.append(offsets[-1] + g)
        span = offsets[-1] + lengths[-1]
        if shape == "to the top":
            start = n - span
        else:
            start = draw(st.integers(min_value=0, max_value=n - span))
        for offset, run_length in zip(offsets, lengths):
            bits |= ((1 << run_length) - 1) << (start + offset)
    return bits


progression_pairs_strategy = st.integers(min_value=1, max_value=300).flatmap(
    lambda n: st.tuples(
        st.just(n),
        run_progression_bits(n),
        st.one_of(
            run_progression_bits(n),
            run_structured_bits(n),
            st.integers(min_value=0, max_value=(1 << n) - 1),
        ),
    )
)


run_pairs_strategy = st.integers(min_value=1, max_value=300).flatmap(
    lambda n: st.tuples(
        st.just(n),
        run_structured_bits(n),
        st.one_of(
            run_structured_bits(n),
            st.integers(min_value=0, max_value=(1 << n) - 1),
        ),
    )
)


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
    assert CyclicSet(8, s.bits ^ 0xFF).elements() == [0, 1, 2, 6, 7]


def test_from_elements_reduces_mod_n():
    assert mk(8, [-3, 11, 5]).elements() == [3, 5]


@pytest.mark.parametrize("n", [8, 8 * _WALK_MAX_BYTES, 8 * _WALK_MAX_BYTES + 1, 10**5])
def test_from_elements_refuses_a_float_on_both_packing_paths(n):
    # numpy would truncate 1.5 to 1 above 64 bytes
    with pytest.raises(TypeError):
        CyclicSet.from_elements(n, [3, 1.5])
    assert CyclicSet.from_elements(n, [True, 3]).elements() == [1, 3]


def test_bad_modulus_and_bits_rejected():
    with pytest.raises(DomainError):
        CyclicSet(0, 0)
    with pytest.raises(DomainError):
        CyclicSet(3, 1 << 3)


# far past any allocation that could succeed: packing a one-member set at
# this modulus once asked numpy for 931 GiB of flags
HUGE = 10**12


def test_moduli_past_the_cap_are_refused_before_anything_is_sized():
    assert CyclicSet(_MAX_MODULUS, 1).size == 1
    with pytest.raises(DomainError):
        CyclicSet(8, 1 << 8)
    refusals = [
        lambda: CyclicSet(_MAX_MODULUS + 1, 1),
        lambda: CyclicSet(HUGE, 1),
        lambda: CyclicSet.from_elements(HUGE, [1]),
        lambda: set_from_json({"n": HUGE, "elements": [1]}),
        lambda: interval(HUGE, 1, 2),
        lambda: units(HUGE),
    ]
    for call in refusals:
        with pytest.raises(DomainError, match="modulus must be at most 4294967296"):
            call()


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


@pytest.mark.parametrize("n", range(1, 13))
def test_interval_matches_its_elements_at_every_offset(n):
    # every start in [-2n, 2n], so every wrap offset a % n, at every length
    for a in range(-2 * n, 2 * n + 1):
        for length in range(1, n):
            expected = CyclicSet.from_elements(n, range(a, a + length))
            assert interval(n, a, a + length - 1) == expected
        with pytest.raises(IntervalCoversGroupError):
            interval(n, a, a + n - 1)


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


@given(run_pairs_strategy)
@settings(max_examples=300, deadline=None)
def test_sumset_matches_oracles_on_run_structured_sets(case):
    n, a_bits, b_bits = case
    assert_sumset_matches_oracles(n, a_bits, b_bits)
    assert_sumset_matches_oracles(n, a_bits, a_bits)


@given(progression_pairs_strategy)
@settings(max_examples=300, deadline=None)
def test_sumset_matches_oracles_on_run_progressions(case):
    n, a_bits, b_bits = case
    assert_sumset_matches_oracles(n, a_bits, b_bits)
    assert_sumset_matches_oracles(n, a_bits, a_bits)


@pytest.mark.parametrize("n", [1, 2, 3, 8, 63, 64, 65, 300])
def test_sumset_run_edge_cases(n):
    full = (1 << n) - 1
    cases = {
        0,
        full,  # one run of length n
        full ^ 1,  # run 1..n-1 of length n-1
        full ^ (1 << (n - 1)),  # run 0..n-2 of length n-1
        full ^ (1 << (n // 2)),  # cyclic run of length n-1 through n-1 and 0
        1 | (1 << (n - 1)),  # the run {n-1, 0} that crosses 0
        1,
        1 << (n - 1),
        int("01" * n, 2) & full,  # no two adjacent members
    }
    for a_bits in cases:
        for b_bits in cases:
            assert_sumset_matches_oracles(n, a_bits, b_bits)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_sumset_matches_oracles_on_every_pair(n):
    for a_bits in range(1 << n):
        for b_bits in range(a_bits, 1 << n):
            assert_sumset_matches_oracles(n, a_bits, b_bits)


@pytest.mark.parametrize("n", [686, 1001, 2048, 2999])
def test_ladder_rungs_sum_to_their_complement(n):
    for params in size_ladder(n).rungs:
        S = build_small(params, checked=False)
        complement = S.bits ^ ((1 << n) - 1)
        assert sumset(S, S).bits == complement
        assert shift_or_sumset_bits(S.bits, S.bits, n) == complement


def assert_sums_to_complement(S):
    complement = S.bits ^ ((1 << S.modulus) - 1)
    assert sumset(S, S).bits == complement
    assert sumset_per_run(S.bits, S.bits, S.modulus) == complement


def test_ladder_rungs_at_scale_sum_to_their_complement():
    for params in size_ladder(10**5).rungs:
        assert_sums_to_complement(build_small(params, checked=False))


@pytest.mark.parametrize("k", range(5, 80, 10))
def test_density_cells_sum_to_their_complement(k):
    # the small-d cells have up to 18693 runs, nearly all one member of B or -B
    cell = density_choice(99700, k / 240)
    assert_sums_to_complement(build_small(cell, checked=False))


# --- bit helpers ---


@given(
    st.integers(min_value=1, max_value=300).flatmap(
        lambda w: st.tuples(st.just(w), st.integers(min_value=0, max_value=(1 << w) - 1))
    )
)
@settings(max_examples=300, deadline=None)
def test_mirror_matches_string_reversal(case):
    width, bits = case
    assert mirror(bits, width) == string_mirror_bits(bits, width)


def test_mirror_matches_string_reversal_at_scale():
    width = 10**5
    top = 1 << (width - 1)
    for bits in (0, 1, top, top | 1, (1 << width) - 1, random.Random(5).getrandbits(width)):
        assert mirror(bits, width) == string_mirror_bits(bits, width)


def naive_positions(bits):
    """Indices of the 1s in the membership string, read from bit 0 up."""
    return [i for i, c in enumerate(reversed(format(bits, "b"))) if c == "1"]


def _position_masks():
    """Dense, sparse and boundary masks for the two bit_positions paths."""
    rng = random.Random(11)
    edge = 8 * _WALK_MAX_BYTES
    masks = [0, 1, 1 << 7, 1 << 8, (1 << 64) - 1]
    for width in (40, 130, 2000, edge - 1, edge, edge + 1, edge + 9, 10**5):
        top = 1 << (width - 1)
        masks += [top, top | 1, rng.getrandbits(width) | top]
        # a few set bits between long runs of zero bytes
        for count in (1, 2, width // 40, width // 32 - 1, width // 32, width // 32 + 1):
            if 1 <= count < width:
                masks.append(sum(1 << p for p in rng.sample(range(width - 1), count)) | top)
    rung = build_small(size_ladder(10**5).rungs[-1], checked=False).bits
    masks += [rung, rung ^ (rung << 1)]
    return masks


def test_bit_positions_match_the_naive_oracle():
    for bits in _position_masks():
        positions = bit_positions(bits)
        assert positions == naive_positions(bits)
        # json and the big-int shifts of the sumset need int, not numpy.int64
        assert all(type(p) is int for p in positions)


def test_bits_from_positions_inverts_bit_positions():
    for bits in _position_masks():
        width = bits.bit_length() + 3
        assert bits_from_positions(width, naive_positions(bits)) == bits
        assert bits_from_positions(width, reversed(naive_positions(bits))) == bits
    assert bits_from_positions(5, [4, 4, 0]) == 0b10001


def naive_mask(positions):
    """One shift-OR per index; a repeated index sets its bit again."""
    bits = 0
    for p in positions:
        bits |= 1 << p
    return bits


def _packed(width, positions):
    """bits_from_positions, checked to return a Python int, not a numpy one."""
    bits = bits_from_positions(width, positions)
    assert type(bits) is int
    return bits


# the byte walk up to 8 * _WALK_MAX_BYTES = 512 bits, numpy above
@pytest.mark.parametrize("width", range(8 * _WALK_MAX_BYTES - 7, 8 * _WALK_MAX_BYTES + 9))
def test_bits_from_positions_matches_the_naive_oracle_across_the_edge(width):
    rng = random.Random(width)
    sample = rng.sample(range(width), width // 3)
    cases = [[], [0], [width - 1], list(range(width)), sample, sorted(sample)]
    for positions in cases:
        assert _packed(width, positions) == naive_mask(positions)
        assert _packed(width, (p for p in positions)) == naive_mask(positions)
        repeated = positions + positions[::-1] + positions[: len(positions) // 2]
        assert _packed(width, repeated) == naive_mask(positions)
    assert _packed(width, [width - 1, 0, width - 1, 0, 7, 7]) == naive_mask([0, 7, width - 1])


def test_bits_from_positions_packs_generators_and_empty_input_above_the_edge():
    width = 10**5
    for empty in ([], (), iter(()), (p for p in ())):
        assert _packed(width, empty) == 0
    for bits in _position_masks():
        positions = naive_positions(bits)
        generated = (p for p in positions + positions[:50])
        assert _packed(max(width, bits.bit_length()), generated) == bits


@given(st.integers(min_value=0, max_value=(1 << 3000) - 1))
@settings(max_examples=200, deadline=None)
def test_bit_positions_match_the_naive_oracle_on_random_masks(bits):
    assert bit_positions(bits) == naive_positions(bits)


@pytest.mark.parametrize("sep", [",", ", ", ",\n      ", ""])
def test_positions_text_joins_the_positions(sep):
    masks = _position_masks()
    # members on both sides of every change of digit count
    masks.append(sum(1 << (10**k + d) for k in range(7) for d in (-1, 0)))
    masks.append(random.Random(3).getrandbits(10**6))
    for bits in masks:
        expected = sep.join(map(str, naive_positions(bits)))
        assert first_difference(positions_text(bits, sep), expected) is None


@pytest.mark.parametrize("n", [1, 2, 7, 8, 64, 65])
def test_rotate_matches_per_bit_definition(n):
    rng = random.Random(n)
    for bits in (0, 1, 1 << (n - 1), (1 << n) - 1, rng.getrandbits(n)):
        for r in range(n + 1):
            moved = ((p + r) % n for p in bit_positions(bits))
            assert rotate(bits, r, n) == bits_from_positions(n, moved)


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
    assert both == (sumset(a, a).bits == a.bits ^ ((1 << n) - 1))


@given(sets_strategy)
@settings(max_examples=300, deadline=None)
def test_sum_free_excludes_zero(case):
    n, bits = case
    a = CyclicSet(n, bits)
    if is_sum_free(a):
        assert 0 not in a


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
    orbit = {dilate(mk(8, [3, 4, 5]), u).bits for u in units(8)}
    assert len(units(8)) % len(orbit) == 0


@given(sets_strategy)
@settings(max_examples=200, deadline=None)
def test_canonical_class_separates_orbits(case):
    n, bits = case
    a = CyclicSet(n, bits)
    canon = canonical_dilation_class(a)
    assert canon.bits in {dilate(a, u).bits for u in units(n)}


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
        {"n": 8, "elements": [1.5]},
        {"n": True, "elements": []},
        # 64 and 65 bytes: the members would be packed by the byte walk,
        # then by numpy, which casts floats and numeric strings
        *(
            {"n": n, "elements": elements}
            for n in (512, 520)
            for elements in ([n], [-1], [True], [1.5], [3.0], ["3"], 3)
        ),
    ],
)
def test_json_rejects_malformed(obj):
    with pytest.raises(DomainError):
        set_from_json(obj)


@pytest.mark.parametrize(
    "elements, bad",
    [
        ([True], "True"),
        ([1, 2, True, 9], "True"),
        ([3, 1.5], "1.5"),
        ([0, 1, "2"], "'2'"),
        ([5, None], "None"),
        ([2, -1, 8], "-1"),
        ([7, 8], "8"),
        ([9, 1.5], "9"),
        ([1, [2]], "[2]"),
    ],
)
def test_json_names_the_first_bad_element(elements, bad):
    with pytest.raises(DomainError) as exc:
        set_from_json({"n": 8, "elements": elements})
    assert str(exc.value) == f"element {bad} outside [0, 8)"


@pytest.mark.parametrize("n", [512, 520])  # either side of the 64-byte edge
@pytest.mark.parametrize(
    "elements, bad",
    [
        ([True], "True"),
        ([1, 2, True, 9], "True"),
        ([3, 1.5], "1.5"),
        ([7, 3.0], "3.0"),
        ([0, 1, "2"], "'2'"),
        ([5, None], "None"),
        ([2, -1, 8], "-1"),
        ([511, 600], "600"),
        ([600, 1.5], "600"),
        ([1, [2]], "[2]"),
    ],
)
def test_json_names_the_first_bad_element_either_side_of_the_packer_edge(
    n, elements, bad
):
    with pytest.raises(DomainError) as exc:
        set_from_json({"n": n, "elements": elements})
    assert str(exc.value) == f"element {bad} outside [0, {n})"


def test_json_accepts_int_subclasses_and_the_empty_list():
    class Residue(int):
        pass

    assert set_from_json({"n": 8, "elements": [Residue(3), 5]}).bits == 0b101000
    assert set_from_json({"n": 8, "elements": []}).bits == 0
