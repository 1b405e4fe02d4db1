"""Time the simulation and Cayley layers and write one JSON record.

    python bench/layers.py OUT.json [--baseline SRC]

Each row is one library call at the scale where a kernel change shows: a
200-trial and a 60-trial `simulate cameron` request at N = 5000, one full
4096-trial block, the criterion-11 run (20000 trials, one worker), and the
Cayley properties and edge export of the n = 749 ladder rung.  Three more
200-trial requests at N = 5000 cover both sides of the simulator's choice
of path: the residues 1..99 mod 100 are not sum-free, so their blocks push
sums step by step, {0, 1, 3} mod 4 (0 + 0 = 0) is not either, and a
quarter of its steps are non-members settled from the sums rows, and
{1, 4} mod 5 is sum-free, so its blocks search for witnesses as the odd
residues' do.  Each of ROUNDS rounds starts a fresh interpreter for the
package under src/ beside this script and one for the tree given by
--baseline (a directory holding a sumfree package, such as a checkout's
src/), the two in alternating order, so they share the machine's state.
Each interpreter times every row best of REPEAT in-process.  A row
records the best time over all rounds and the range of the rounds' bests,
in milliseconds, with the call's answer, so two trees that disagree show
it.  The record also holds the CPU count and affinity, the Python and
numpy versions, and each tree's commit.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import subprocess
import sys
import time

CURRENT = pathlib.Path(__file__).resolve().parents[1] / "src"
ROUNDS = 5
REPEAT = 5


def _rows():
    """name -> zero-argument call returning a JSON-able answer."""
    from sumfree.applications import (
        ProcessConfig,
        cayley_graph,
        graph_properties,
        simulate_random_sumfree,
    )
    from sumfree.interval_ap_family import build_small, size_ladder
    from sumfree.zn_core import CyclicSet

    odd = CyclicSet.from_elements(2, [1])
    push = CyclicSet.from_elements(100, range(1, 100))
    mod5 = CyclicSet.from_elements(5, [1, 4])
    holds_zero = CyclicSet.from_elements(4, [0, 1, 3])
    graph = cayley_graph(build_small(size_ladder(749).rungs[0]))

    def simulate(*config):
        report = simulate_random_sumfree(ProcessConfig(*config))
        return [report.contained_trials, report.joined_total]

    return {
        "simulate.request_200_odd": lambda: simulate(5000, 200, 1, odd),
        "simulate.request_60": lambda: simulate(5000, 60, 1),
        "simulate.block_4096_odd": lambda: simulate(5000, 4096, 7, odd),
        "simulate.criterion_11": lambda: simulate(5000, 20000, 7, odd),
        "simulate.request_200_push": lambda: simulate(5000, 200, 1, push),
        "simulate.request_200_mod5": lambda: simulate(5000, 200, 1, mod5),
        "simulate.request_200_holds_zero": lambda: simulate(5000, 200, 1, holds_zero),
        "cayley.properties_749": lambda: list(vars(graph_properties(graph)).values()),
        "cayley.edges_749": lambda: len(graph.to_edge_list()),
    }


def _child(src: str) -> None:
    """Print {row: [best ms, answer]} for the package under src."""
    sys.path.insert(0, src)
    out = {}
    for name, call in _rows().items():
        best = float("inf")
        for _ in range(REPEAT):
            start = time.perf_counter()
            answer = call()
            best = min(best, time.perf_counter() - start)
        out[name] = [best * 1e3, answer]
    print(json.dumps(out))


def _commit(src: pathlib.Path):
    """The commit checked out at src, and whether its tree has changes."""
    def git(*args):
        return subprocess.run(
            ["git", "-C", str(src), *args], capture_output=True, text=True
        ).stdout.strip()

    return {
        "commit": git("rev-parse", "HEAD") or None,
        "dirty": bool(git("status", "--porcelain", "--untracked-files=no")),
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out", nargs="?")
    parser.add_argument("--baseline")
    parser.add_argument("--child", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.child:
        _child(args.child)
        return
    if not args.out:
        parser.error("the output path is required")
    trees = {"current": CURRENT}
    if args.baseline:
        trees["baseline"] = pathlib.Path(args.baseline).resolve()
    bests = {label: {} for label in trees}
    answers = {label: {} for label in trees}
    for round_ in range(ROUNDS):
        # the tree that runs first alternates from round to round
        for label, src in list(trees.items())[:: -1 if round_ % 2 else 1]:
            proc = subprocess.run(
                [sys.executable, __file__, "--child", str(src)],
                capture_output=True, text=True, check=True,
            )
            for name, (ms, answer) in json.loads(proc.stdout).items():
                bests[label].setdefault(name, []).append(ms)
                answers[label][name] = answer
    import numpy

    record = {
        "machine": {
            "cpu_count": os.cpu_count(),
            "affinity": sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
            "python": platform.python_version(),
            "numpy": numpy.__version__,
        },
        "rounds": ROUNDS,
        "repeat": REPEAT,
        "trees": {
            label: {
                **_commit(src),
                "rows": {
                    name: {
                        "best_ms": round(min(times), 3),
                        "round_bests_ms": [round(min(times), 3), round(max(times), 3)],
                        "answer": answers[label][name],
                    }
                    for name, times in bests[label].items()
                },
            }
            for label, src in trees.items()
        },
    }
    pathlib.Path(args.out).write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
