"""Reference code the test files share.

These functions check the library from the definitions, slowly and
obviously; nothing in ``sumfree`` calls them.  ``brute_special``
re-enumerates the t-special windows with plain set arithmetic;
``gap_fill_check`` and ``bc_interval_check`` test the two closed-form
sumset claims of the interval-plus-progression construction;
``canonical_dilation_class`` and ``classes_per_member`` split a catalog
into dilation classes one member at a time, as the library did before
its orbit sweep; ``equivalence_per_window`` builds S_T for each of the
4^t windows and runs the group predicates on it, as the library did
before its equivalence sweep compared two searches.
"""

from itertools import product
from typing import Dict, List, Tuple

from sumfree._bits import bit_positions, mirror
from sumfree.errors import ConstructionError
from sumfree.interval_ap_family import IntervalAPParameters, _half_even, component_sets
from sumfree.search_oracle import DilationClass, EquivalenceReport
from sumfree.special_sets import SpecialEnumeration
from sumfree.st_family import STParameters, TCandidate, _is_special_mask, _st_bits
from sumfree.zn_core import (
    CyclicSet,
    _sumset_bits,
    dilate,
    interval,
    negate,
    sumset,
    units,
)


def theorem_valid_pairs(max_n=200, max_t=6):
    """All (n, s) with t in [1, max_t], n <= max_n, in the proven range."""
    out = []
    for t in range(1, max_t + 1):
        s = 4 * t  # smallest s with 2n <= 7s - 2 at this t
        while 3 * s + 2 * t - 1 <= max_n:
            out.append((3 * s + 2 * t - 1, s))
            s += 1
    return out


def brute_special(t: int) -> SpecialEnumeration:
    """Re-enumerate the special windows straight from the definition.

    Every subset of [0, 2t-1] is tested with plain set arithmetic: size t,
    no triple summing to 2t-1, and coverage of [0, 2t-1+min T] outside the
    mirror 2t-1-T by pair sums.  It walks all 4^t subsets, so keep t <= 8.
    """
    width = 2 * t
    found = []
    for mask in range(1 << width):
        members = [i for i in range(width) if mask >> i & 1]
        if len(members) != t:
            continue
        triples = {a + b + c for a, b, c in product(members, repeat=3)}
        if 2 * t - 1 in triples:
            continue
        pair_sums = {a + b for a, b in product(members, repeat=2)}
        mirror = {2 * t - 1 - x for x in members}
        needed = range(2 * t + min(members))
        if all(v in pair_sums for v in needed if v not in mirror):
            found.append(TCandidate(t, mask))
    return SpecialEnumeration(t, tuple(found))


def gap_fill_check(params: IntervalAPParameters) -> bool:
    """-B and A+B are disjoint and tile one closed-form interval."""
    n, t, d = params.n, params.t, params.d
    A, B, _ = component_sets(params)
    neg_b = negate(B)
    ab = sumset(A, B)
    lo = (n + 1) // 2 + t + 2 * d - 2
    hi = _half_even(3 * n // 2 - t - 1) - d + 1
    expected = interval(n, lo, hi)
    return neg_b.bits & ab.bits == 0 and neg_b.bits | ab.bits == expected.bits


def bc_interval_check(params: IntervalAPParameters) -> bool:
    """B+C equals its closed-form interval; needs |C| >= d to tile."""
    if not params.hypothesis_ok:
        raise ConstructionError(
            f"hypothesis |C| >= d fails: |C| = {params.c_size} < d = {params.d}"
        )
    n, t, d = params.n, params.t, params.d
    _, B, C = component_sets(params)
    bc = sumset(B, C)
    lo = _half_even(3 * n // 2 - t + 1) + 2 * d - 2
    hi = n - 2 * d + 2
    return bc.bits == interval(n, lo, hi).bits


def canonical_dilation_class(a: CyclicSet) -> CyclicSet:
    """Canonical representative of {u * A : u a unit}.

    The representative is the orbit member whose membership bit-string,
    read from index 0 upward, is lexicographically least.  Any total order
    would do; this one is reproducible and cheap.
    """
    n = a.modulus
    # lexicographic order on the membership string read from index 0
    # upward is the numeric order of the mirrored mask; units(n) is never empty
    best = min(
        (dilate(a, u).bits for u in units(n)),
        key=lambda bits: mirror(bits, n),
    )
    return CyclicSet(n, best)


def classes_per_member(members: Tuple[CyclicSet, ...]) -> Tuple[DilationClass, ...]:
    """Dilation classes by bucketing every member under its canonical form.

    This does phi(n) dilations per member and trusts the catalog to be
    closed: a class's orbit_size is the number of members in its bucket.
    """
    buckets: Dict[int, List[CyclicSet]] = {}
    reps: Dict[int, CyclicSet] = {}
    for member in members:
        rep = canonical_dilation_class(member)
        buckets.setdefault(rep.bits, []).append(member)
        reps[rep.bits] = rep
    return tuple(
        DilationClass(reps[bits], len(bucket))
        for bits, bucket in sorted(buckets.items())
    )


def equivalence_per_window(n: int, s: int) -> EquivalenceReport:
    """The S_T equivalence report, one window at a time.

    Every mask T of [0, 2t - 1] gets the t-special test and a full S_T
    with a fresh sumset, and the two verdicts are compared.  It walks all
    4^t windows, so keep t <= 8.
    """
    t = STParameters(n, s).t
    central = interval(n, n - 2 * s + 1, 2 * s - 1).bits
    group_mask = (1 << n) - 1
    special_count = 0
    counterexamples = []
    for mask in range(1 << (2 * t)):
        special = _is_special_mask(mask, t)
        special_count += special
        bits = _st_bits(central, mask, t, s)
        ss = _sumset_bits(bits, bits, n)
        group_side = (
            ss & bits == 0
            and (bits | ss) == group_mask
            and bits.bit_count() == s
        )
        if special != group_side:
            counterexamples.append(tuple(bit_positions(mask)))
    return EquivalenceReport(
        n=n,
        s=s,
        t=t,
        candidates=1 << (2 * t),
        special_count=special_count,
        counterexamples=tuple(sorted(counterexamples)),
    )
