"""Brute-force oracle tests.

The exhaustive searchers are themselves checked against an even dumber
oracle: literal iteration over all 2^n subsets with the zn_core predicates.
The orbit sweep that splits a catalog into dilation classes is checked
against the per-member canonical form it replaced, and the S_T
equivalence sweep against the per-window loop it replaced.
"""

import pytest

from oracles import (
    brute_special,
    classes_per_member,
    equivalence_per_window,
    theorem_valid_pairs,
)
from sumfree import search_oracle
from sumfree._primes import is_prime
from sumfree.errors import BudgetExceededError, ConstructionError, DomainError
from sumfree.search_oracle import (
    Catalog,
    _group_into_classes,
    _pair_orbits,
    _scsf_shard,
    characterization_probe,
    exhaustive_max_sum_free,
    exhaustive_scsf,
    verify_st_equivalence,
)
from sumfree.special_sets import (
    SpecialEnumeration,
    enumerate_special,
    predicted_scsf_count,
)
from sumfree.zn_core import (
    CyclicSet,
    classify,
    dilate,
    is_sum_free,
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


def test_classes_refuse_a_catalog_not_closed_under_dilation():
    # 3 * {3, 4, 5} = {1, 4, 7} in Z_8 is missing
    members = (CyclicSet.from_elements(8, [3, 4, 5]),)
    with pytest.raises(ConstructionError, match="not closed under unit dilation"):
        _group_into_classes(members)
    # the check runs whenever classes are read, not when the catalog is built
    catalog = Catalog(8, None, members)
    with pytest.raises(ConstructionError, match="not closed under unit dilation"):
        catalog.classes


def test_catalogs_split_into_classes_only_when_read(monkeypatch):
    # the probe and `search exhaustive` without --classes read members only
    def refuse(members):
        raise AssertionError("classes computed but never read")

    monkeypatch.setattr(search_oracle, "_group_into_classes", refuse)
    assert len(exhaustive_scsf(40).members) > 0
    assert characterization_probe(29, 8).catalog_count > 0
    assert len(exhaustive_max_sum_free(11).members) == 5


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
            unsharded = sorted(_scsf_shard(n, _pair_orbits(n), 0, 0, 0, size_filter))
            assert [m.bits for m in single.members] == unsharded
            assert exhaustive_scsf(n, size_filter, workers=3) == single


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
    honest = search_oracle.enumerate_special

    def lossy(t, **kwargs):
        found = honest(t, **kwargs)
        return SpecialEnumeration(t, tuple(T for T in found.sets if T.mask != mask))

    monkeypatch.setattr(search_oracle, "enumerate_special", lossy)


def _drop_window_from_group_side(monkeypatch, mask):
    honest = search_oracle._scsf_shard

    def lossy(*shard):
        # at (61, 18) the window T sits in bits 18 .. 25 of S_T
        return [bits for bits in honest(*shard) if bits >> 18 & 0xFF != mask]

    monkeypatch.setattr(search_oracle, "_scsf_shard", lossy)


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


def test_max_sum_free_rejects_bad_p():
    with pytest.raises(DomainError):
        exhaustive_max_sum_free(9)
    with pytest.raises(DomainError):
        exhaustive_max_sum_free(2)
    with pytest.raises(BudgetExceededError):
        exhaustive_max_sum_free(47)


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


def test_probe_no_window():
    # p - 3s + 1 < 0: no offset window exists at this size
    report = characterization_probe(13, 6)
    assert report.t is None
    assert report.construction_count == 0
    assert report.catalog_count == 0


def test_probe_rejects_composite():
    with pytest.raises(DomainError):
        characterization_probe(33, 10)
