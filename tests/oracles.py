"""Reference code the test files share.

These functions check the library from the definitions, slowly and
obviously; nothing in ``sumfree`` calls them.  ``brute_special``
re-enumerates the t-special windows with plain set arithmetic;
``gap_fill_check`` and ``bc_interval_check`` test the two closed-form
sumset claims of the interval-plus-progression construction.
"""

from itertools import product

from sumfree.errors import ConstructionError
from sumfree.interval_ap_family import IntervalAPParameters, _half_even, component_sets
from sumfree.special_sets import SpecialEnumeration
from sumfree.st_family import TCandidate
from sumfree.zn_core import interval, negate, sumset


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
