"""Budget refusals, pinned byte for byte.

The stdout lines and the (required, limit) pairs were taken from the
code before the budget checks moved into one gate, ``errors.require_budget``.
Never regenerate them from the code under test: a change here is a change
to what a refused command prints.
"""

from math import comb

import pytest

from sumfree.cli import main
from sumfree.errors import BudgetExceededError
from sumfree.search_oracle import (
    characterization_probe,
    exhaustive_max_sum_free,
    exhaustive_scsf,
    verify_st_equivalence,
)
from sumfree.special_sets import enumerate_special, predicted_scsf_count


def _refusal(message):
    return (
        '{"error":{"type":"BudgetExceededError","message":"' + message + '"}}\n'
    )


REFUSALS = [
    ("search exhaustive --n 46",
     "exhaustive search at n = 46 means 8388608 symmetric candidates, "
     "budget is 4194304"),
    ("search exhaustive --n 30000",
     "exhaustive search at n = 30000 means 2**15000 symmetric candidates, "
     "budget is 4194304"),
    ("special enum --t 15",
     "enumeration for t = 15 needs 155117520 candidates, budget is 40116600"),
    ("special enum --t 8000",
     "enumeration for t = 8000 needs more than 2**15992 candidates, "
     "budget is 40116600"),
    ("special predict --p 101 --r 5",
     "enumeration for t = 15 needs 155117520 candidates, budget is 40116600"),
    ("st equiv --n 181 --s 52",
     "equivalence sweep needs 67108864 candidates, budget is 16777216"),
    ("search probe --p 79 --s 24",
     "exhaustive search at n = 79 means 549755813888 symmetric candidates, "
     "budget is 4194304"),
    ("search probe --p 43 --s 2 --budget 4194304",
     "enumeration for t = 19 needs 35345263800 candidates, budget is 4194304"),
    ("search maxsumfree --p 47",
     "exhaustive maximum-sum-free search accepts p <= 43, got 47"),
]


@pytest.mark.parametrize(
    "command, message", REFUSALS, ids=[command for command, _ in REFUSALS]
)
def test_refusal_stdout_is_pinned(capsys, command, message):
    code = main(command.split())
    assert code == 1
    assert capsys.readouterr().out == _refusal(message)


API_REFUSALS = [
    ("exhaustive_scsf(46)", lambda: exhaustive_scsf(46), 1 << 23, 1 << 22),
    ("exhaustive_scsf(30000)", lambda: exhaustive_scsf(30000),
     1 << 15000, 1 << 22),
    ("enumerate_special(15)", lambda: enumerate_special(15),
     comb(30, 15), comb(28, 14)),
    ("enumerate_special(8000)", lambda: enumerate_special(8000),
     comb(16000, 8000), comb(28, 14)),
    ("predicted_scsf_count(101, 5)", lambda: predicted_scsf_count(101, 5),
     comb(30, 15), comb(28, 14)),
    ("verify_st_equivalence(181, 52)", lambda: verify_st_equivalence(181, 52),
     1 << 26, 1 << 24),
    ("characterization_probe(79, 24)", lambda: characterization_probe(79, 24),
     1 << 39, 1 << 22),
    ("characterization_probe(43, 2, budget=2**22)",
     lambda: characterization_probe(43, 2, budget=1 << 22),
     comb(38, 19), 1 << 22),
    ("exhaustive_max_sum_free(47)", lambda: exhaustive_max_sum_free(47), 47, 43),
]


@pytest.mark.parametrize(
    "call, required, limit",
    [(call, required, limit) for _, call, required, limit in API_REFUSALS],
    ids=[name for name, *_ in API_REFUSALS],
)
def test_refusal_required_and_limit_are_pinned(call, required, limit):
    with pytest.raises(BudgetExceededError) as exc:
        call()
    assert (exc.value.required, exc.value.limit) == (required, limit)
