"""Tests of the benchmark itself, at tiny scale.

Run from the repository root:  python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import pytest  # noqa: E402

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
import sumfree.cli as cli  # noqa: E402
from workloads import Request, Workload  # noqa: E402

ALL_TRUE = '{"symmetric":true,"sum_free":true,"complete":true,"size":3}\n'
# {3, 5} in Z_8: symmetric and sum-free, but 1, 4 and 7 are not covered
NOT_COMPLETE = '{"symmetric":true,"sum_free":true,"complete":false,"size":2}\n'


def _tiny_workload() -> Workload:
    requests = [
        Request("verify", ("verify", "--n", "8", "--set", "3,4,5"), ALL_TRUE),
        Request("verify", ("verify", "--n", "8", "--set", "3,5"), NOT_COMPLETE),
    ]
    return Workload("tiny", 0, requests, {})


def _no_pins(workload):
    return [(request.key, None) for request in workload.requests]


def _declared(section):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    return {metric["name"]: metric["unit"] for metric in spec[section]}


def test_every_declared_metric_is_emitted_with_its_unit():
    workload = _tiny_workload()
    pins = _no_pins(workload)
    plain, _ = run.measure(cli, workload, pins, 0.0, False, "")
    emitted = run.end_to_end(plain, [0.1, 0.2, 0.3])
    assert {name: unit for name, (_, unit) in emitted.items()} == _declared("end_to_end")
    assert all(value > 0 for value, _ in emitted.values())

    plain, traced = run.measure(cli, workload, pins, 0.0, True, os.devnull)
    emitted = run.per_layer(plain, traced, attempted=4, failed=0)
    assert {name: unit for name, (_, unit) in emitted.items()} == _declared("per_layer")
    assert emitted["zn_core.classify.calls"][0] == 2
    assert emitted["verify_s"][0] > 0


class _CorruptingCli:
    """The real CLI, except that the second request's stdout gains a byte."""

    def __init__(self):
        self.calls = 0

    def main(self, argv):
        status = cli.main(argv)
        self.calls += 1
        if self.calls % 2 == 0:
            print(" ", end="")
        return status


def test_corrupted_stdout_counts_in_error_rate():
    workload = _tiny_workload()
    plain, traced = run.measure(_CorruptingCli(), workload, _no_pins(workload), 0.0, True,
                                os.devnull)
    assert [index for p in plain + traced for index, _ in p.failures] == [1, 1]
    attempted, failed = run.tally(plain + traced)
    assert run.per_layer(plain, traced, attempted, failed)["error_rate"][0] == 0.5


def test_pinned_digest_mismatch_is_a_failure():
    workload = _tiny_workload()
    request = Request("dioid", ("dioid", "--p", "5", "--set", "2,3"))
    workload.requests.append(request)
    stdout = run.call(cli, request.argv)[2]
    pins = _no_pins(workload)
    pins[2] = (request.key, checks.digest(stdout))
    assert run.run_pass(cli, workload, pins).failures == []
    pins[2] = (request.key, checks.digest(stdout + "\n"))
    assert [index for index, _ in run.run_pass(cli, workload, pins).failures] == [2]


def _ancestors(spans, index):
    """Indices of the enclosing spans, innermost first."""
    out = []
    parent = spans[index][3]
    while parent >= 0:
        out.append(parent)
        parent = spans[parent][3]
    return out


def test_self_times_of_nested_spans_add_up_to_the_root():
    tracer = tracing.Tracer()
    original = cli.main
    with tracer:
        for request, argv in enumerate([["ladder", "--n", "700"],
                                        ["cayley", "--n", "8", "--set", "3,4,5"]]):
            tracer.request = request
            assert run.call(cli, argv)[1] == 0
    assert cli.main is original

    spans = tracer.spans
    own = tracing.self_times(spans)
    roots = [i for i, span in enumerate(spans) if span[3] < 0]
    assert [spans[i][0] for i in roots] == ["cli.main", "cli.main"]
    for root in roots:
        subtree = [i for i, span in enumerate(spans)
                   if i == root or root in _ancestors(spans, i)]
        duration = spans[root][2] - spans[root][1]
        assert sum(own[i] for i in subtree) == pytest.approx(duration, rel=1e-9, abs=1e-12)
    classify = [i for i, span in enumerate(spans) if span[0] == "zn_core.classify"]
    chains = [[spans[a][0] for a in _ancestors(spans, i)] for i in classify]
    assert any("interval_ap_family.build_small" in chain and chain[-1] == "cli.main"
               for chain in chains)
    assert all(value >= -1e-9 for value in own)


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_every_seed_draws_only_checkable_requests(name):
    golden = checks.load_golden()["digests"]
    workdir = os.path.join(run.WORKDIR, "work")
    for seed in (0, 3, 12345):
        # generating writes nothing; the pinned keys name files under workdir
        workload = workloads.generate(name, seed, workdir)
        again = workloads.generate(name, seed, workdir)
        assert workload.requests == again.requests
        for request in workload.requests:
            assert request.expected is not None or request.key in golden, request.key


def test_tail_percentile_leaves_ten_requests_beyond():
    latencies = [float(i) for i in range(36)]
    q = run.tail_percentile(len(latencies))
    assert (q, run.nearest_rank(latencies, q)) == (72, 25.0)
    assert run.nearest_rank(latencies * 3, q) == 25.0
    assert run.tail_percentile(5) == 100 and run.nearest_rank(latencies[:5], 100) == 4.0
