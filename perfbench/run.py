"""Benchmark of the sumfree command line, driven in-process.

Run from the repository root:

    python3 perfbench/run.py --workload construct --seed 1 --seconds 35 --trace 0

One client sends the workload's requests to ``sumfree.cli.main(argv)`` in
a closed loop (each request starts when the previous one has returned),
pass after pass, for about ``--seconds``.  Every stdout is checked
against its expected answer or pinned digest.  The last stdout line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics of a traced run with
``--trace 1``.  The line before it carries provenance and run details.
See README.md in this directory.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import io
import json
import os
import platform
import resource
import subprocess
import sys
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from statistics import mean, median
from time import perf_counter
from typing import Dict, List, Optional, Tuple

import checks
import tracing
import workloads

WORKDIR = ".perfbench"
SETUP_REPEATS = 5
MIN_PASSES = 3
# a pass still running after this long is a runaway; stop the run
PASS_LIMIT_S = 60.0

SETUP_ARGV = ["verify", "--n", "8", "--set", "3,4,5"]
SETUP_STDOUT = '{"symmetric":true,"sum_free":true,"complete":true,"size":3}\n'

# command families whose summed latency is reported, as "<family>_s"
FAMILIES = (
    "ladder",
    "density",
    "verify",
    "special_enum",
    "search_exhaustive",
    "search_maxsumfree",
    "st_equiv",
    "simulate",
    "cayley",
)

# (span name, statistic) pairs reported by the traced run
SPAN_METRICS = (
    ("zn_core.classify", "self_s"),
    ("zn_core.classify", "calls"),
    ("zn_core.canonical_dilation_class", "self_s"),
    ("zn_core.canonical_dilation_class", "calls"),
    ("zn_core.dilate", "self_s"),
    ("zn_core.dilate", "calls"),
    ("zn_core.negate", "self_s"),
    ("zn_core.sumset", "self_s"),
    ("zn_core.set_from_json", "self_s"),
    ("interval_ap_family.size_ladder", "self_s"),
    ("interval_ap_family.density_choice", "self_s"),
    ("interval_ap_family.build_small", "self_s"),
    ("interval_ap_family.build_small", "calls"),
    ("st_family.verify_st_equivalence", "self_s"),
    ("st_family.build_st", "self_s"),
    ("special_sets.enumerate_special", "self_s"),
    ("special_sets.enumerate_special", "calls"),
    ("special_sets.predicted_scsf_count", "self_s"),
    ("search_oracle.exhaustive_scsf", "self_s"),
    ("search_oracle.exhaustive_scsf", "calls"),
    ("search_oracle.exhaustive_max_sum_free", "self_s"),
    ("search_oracle.characterization_probe", "self_s"),
    ("applications.graph_properties", "self_s"),
    ("applications.cayley_graph", "self_s"),
    ("applications.CayleyGraph.to_edge_list", "self_s"),
    ("applications.simulate_random_sumfree", "self_s"),
    ("applications.dioid_partition", "self_s"),
    ("cli.build_parser", "self_s"),
    ("cli.build_parser", "calls"),
    ("cli.CommandEnvelope.rendered", "self_s"),
    ("cli.main", "self_s"),
)
COUNTER_UNITS = {"zn_core.classify.bits": "bits", "cli.render_bytes": "bytes"}


@dataclass
class PassResult:
    wall_s: float
    latencies: List[float]
    failures: List[Tuple[int, str]]
    families: Dict[str, float]
    spans: Optional[Dict[str, Dict[str, float]]] = None
    counters: Dict[str, int] = field(default_factory=dict)
    coverage: float = 0.0


def tail_percentile(requests: int) -> int:
    """Highest whole percentile that leaves at least ten of a pass's
    requests beyond it (nearest rank); 100 when a pass has ten or fewer."""
    return 100 * (requests - 10) // requests if requests > 10 else 100


def nearest_rank(values: List[float], q: int) -> float:
    """The q-th percentile: the ceil(q N / 100)-th smallest value."""
    ordered = sorted(values)
    return ordered[max(1, -(-q * len(ordered) // 100)) - 1]


def call(cli, argv) -> Tuple[float, Optional[int], str, Optional[str]]:
    """(latency, exit status, stdout, traceback) of one in-process request."""
    out, err = io.StringIO(), io.StringIO()
    error = None
    start = perf_counter()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            status = cli.main(list(argv))
    except SystemExit as exc:  # argparse rejected the command line
        status = exc.code
    except Exception:  # a request that raises is a failure; the run goes on
        status = None
        error = traceback.format_exc(limit=-3)
    return perf_counter() - start, status, out.getvalue(), error


def run_pass(cli, workload, pins, tracer: Optional[tracing.Tracer] = None) -> PassResult:
    """Send every request once; check outputs after the clock stops."""
    gc.collect()
    if tracer is not None:
        tracer.reset()
        tracer.install()
    results = []
    started = perf_counter()
    try:
        for index, request in enumerate(workload.requests):
            if tracer is not None:
                tracer.request = index
            results.append(call(cli, request.argv))
            if perf_counter() - started > PASS_LIMIT_S:
                raise RuntimeError(f"pass exceeded {PASS_LIMIT_S} s at request {index}")
    finally:
        wall = perf_counter() - started
        if tracer is not None:
            tracer.uninstall()

    failures = []
    families = {family: 0.0 for family in FAMILIES}
    outputs = [stdout for _, _, stdout, _ in results]
    for index, (request, (latency, status, stdout, error)) in enumerate(
        zip(workload.requests, results)
    ):
        if request.family in families:
            families[request.family] += latency
        pinned_key, pinned = pins[index]
        if pinned_key != request.key:
            reason = f"request differs from the pinned list ({pinned_key!r})"
        elif error is not None:
            reason = "raised: " + error.strip().splitlines()[-1]
        else:
            reason = checks.check(request, status, stdout, pinned, outputs)
        if reason is not None:
            failures.append((index, reason))

    result = PassResult(wall, [r[0] for r in results], failures, families)
    if tracer is not None:
        result.spans = tracing.aggregate(tracer.spans)
        result.counters = dict(tracer.counters)
        result.coverage = tracing.root_time(tracer.spans) / wall
    return result


def resolve_pins(workload, golden) -> List[Tuple[str, Optional[str]]]:
    """(pinned key, pinned digest) per request.

    Shipped seeds pin the whole ordered request list; other seeds use the
    per-request table, which covers every request a seed can draw.
    """
    shipped = golden["seeds"].get(workload.name, {}).get(str(workload.seed))
    if shipped is not None:
        if len(shipped) != len(workload.requests):
            return [("<pinned list has another length>", None)] * len(workload.requests)
        return [tuple(entry) for entry in shipped]
    table = golden["digests"]
    return [(request.key, table.get(request.key)) for request in workload.requests]


def measure_setup(root: str) -> List[float]:
    """Fresh interpreter to the first trivial request answered, per try."""
    code = (
        "import sys; import sumfree; from sumfree.cli import main; "
        f"sys.exit(main({SETUP_ARGV!r}))"
    )
    src = os.path.join(root, "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    times = []
    for _ in range(SETUP_REPEATS):
        start = perf_counter()
        proc = subprocess.run([sys.executable, "-c", code], cwd=root, env=env,
                              capture_output=True, text=True, timeout=120)
        times.append(perf_counter() - start)
        if proc.returncode != 0 or proc.stdout != SETUP_STDOUT:
            raise RuntimeError(
                f"set-up request failed: status {proc.returncode}, stdout {proc.stdout!r}, "
                f"stderr {proc.stderr[-500:]!r}"
            )
    return times


def _cpu_model() -> Optional[str]:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _git_commit(root: str) -> Optional[str]:
    if not os.path.exists(os.path.join(root, ".git")):
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() or None


def _src_digest(root: str) -> str:
    """sha256 over the package sources, which identifies the code measured
    also where the checkout is not a git repository."""
    h = hashlib.sha256()
    package = os.path.join(root, "src", "sumfree")
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            h.update(name.encode())
            with open(os.path.join(package, name), "rb") as handle:
                h.update(handle.read())
    return h.hexdigest()


def provenance(root: str, workload: str, seed: int) -> Dict[str, object]:
    import numpy

    return {
        "workload": workload,
        "seed": seed,
        "cpu_count": os.cpu_count(),
        "cpu_affinity": sorted(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": _git_commit(root),
        "src_sha256": _src_digest(root),
    }


def end_to_end(passes: List[PassResult], setup_times: List[float]) -> Dict[str, Tuple[float, str]]:
    # latency percentiles pool every pass: requests near a rank are then
    # sampled across the whole run, not once per pass
    latencies = [x for p in passes for x in p.latencies]
    q = tail_percentile(len(passes[0].latencies))
    return {
        "setup_s": (median(setup_times), "s"),
        # the mean, not the median: with a handful of passes per run the
        # median jumps between the speed phases of a shared host, and the
        # mean pass time was the steadier figure from run to run
        "wall_s": (mean(p.wall_s for p in passes), "s"),
        "req_p50_ms": (median(latencies) * 1e3, "ms"),
        "req_tail_ms": (nearest_rank(latencies, q) * 1e3, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def per_layer(plain: List[PassResult], traced: List[PassResult],
              attempted: int, failed: int) -> Dict[str, Tuple[float, str]]:
    metrics: Dict[str, Tuple[float, str]] = {}
    count = len(traced)
    for span, stat in SPAN_METRICS:
        total = sum(p.spans.get(span, {}).get(stat, 0) for p in traced)
        if stat == "calls":
            metrics[f"{span}.calls"] = (total // count, "count")
        else:
            metrics[f"{span}.self_s"] = (total / count, "s")
    for name, _ in tracing.COUNTERS.values():
        total = sum(p.counters.get(name, 0) for p in traced)
        metrics[name] = (total // count, COUNTER_UNITS.get(name, "count"))
    for family in FAMILIES:
        metrics[f"{family}_s"] = (median(p.families[family] for p in plain), "s")
    metrics["error_rate"] = (failed / attempted, "ratio")
    metrics["trace.overhead_s"] = (
        median(p.wall_s for p in traced) - median(p.wall_s for p in plain), "s")
    metrics["trace.coverage"] = (median(p.coverage for p in traced), "ratio")
    return metrics


def tally(passes: List[PassResult]) -> Tuple[int, int]:
    """(attempted, failed) requests over all passes of a run."""
    return sum(len(p.latencies) for p in passes), sum(len(p.failures) for p in passes)


def measure(cli, workload, pins, seconds: float, trace: bool, trace_path: str):
    """Passes until the next one would end more than half a pass after
    ``seconds``, so the run measures about ``seconds`` on average.

    Untraced: at least MIN_PASSES.  Traced: untraced and traced passes
    alternate, at least one of each; spans of the last traced pass are
    written to ``trace_path``.
    """
    plain: List[PassResult] = []
    traced: List[PassResult] = []
    tracer = tracing.Tracer() if trace else None
    started = perf_counter()
    while True:
        plain.append(run_pass(cli, workload, pins))
        step = plain[-1].wall_s
        if tracer is not None:
            origin = perf_counter()
            traced.append(run_pass(cli, workload, pins, tracer))
            step += traced[-1].wall_s
        enough = len(plain) >= (1 if trace else MIN_PASSES)
        if enough and perf_counter() - started + step / 2 > seconds:
            break
    if tracer is not None:
        tracer.write(trace_path, origin)
    return plain, traced


def load_cli(root: str):
    """Import ``sumfree.cli`` from the sources under ``root``, or say why not."""
    if not os.path.isfile(os.path.join(root, "src", "sumfree", "cli.py")):
        print("perfbench: src/sumfree not found; run from the repository root",
              file=sys.stderr)
        return None
    sys.path.insert(0, os.path.join(root, "src"))
    return importlib.import_module("sumfree.cli")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    cli = load_cli(root)
    if cli is None:
        return 2

    workdir = os.path.join(WORKDIR, "work")
    results_dir = os.path.join(WORKDIR, "results")
    os.makedirs(results_dir, exist_ok=True)
    info = provenance(root, args.workload, args.seed)
    setup_times = measure_setup(root)
    workload = workloads.generate(args.workload, args.seed, workdir)
    workloads.write_set_files(workdir, workload.set_files)
    pins = resolve_pins(workload, checks.load_golden())

    trace_path = os.path.join(WORKDIR, f"trace-{args.workload}.jsonl")
    plain, traced = measure(cli, workload, pins, args.seconds, bool(args.trace), trace_path)
    passes = plain + traced
    attempted, failed = tally(passes)
    if args.trace:
        metrics = per_layer(plain, traced, attempted, failed)
    else:
        metrics = end_to_end(plain, setup_times)

    requests = len(workload.requests)
    percentile = tail_percentile(requests)
    details = {
        "provenance": info,
        "requests_per_pass": requests,
        "req_tail_percentile": percentile,
        "req_tail_beyond_per_pass": requests - -(-percentile * requests // 100),
        "latency_samples": requests * len(plain),
        "passes": len(plain),
        "traced_passes": len(traced),
        "pass_wall_s": [round(p.wall_s, 6) for p in plain],
        "latencies_ms": [[round(x * 1e3, 4) for x in p.latencies] for p in plain],
        "setup_s_tries": [round(t, 6) for t in setup_times],
        "error_rate": failed / attempted,
        "failures": [
            {"request": index, "argv": workload.requests[index].key, "reason": reason}
            for p in passes for index, reason in p.failures
        ][:20],
        "trace_file": trace_path if args.trace else None,
    }
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    with open(os.path.join(results_dir, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"),
              "w", encoding="utf-8") as handle:
        json.dump({"details": details, "result": result}, handle, indent=1)
    details_line = dict(details)
    del details_line["latencies_ms"]
    print(json.dumps({"perfbench": details_line}))
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
