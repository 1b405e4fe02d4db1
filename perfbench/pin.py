"""Rewrite golden.json: the stdout digest of every request a seed can draw.

Run from the repository root, only when the pinned answers are meant to
change (the CLI's stdout is byte-stable otherwise):

    python3 perfbench/pin.py

It runs every request of every workload's universe once, then the full
request lists of the shipped seeds, which it pins in order.  A request
that exits non-zero or breaks an anchor is not pinned: the script stops.
"""

from __future__ import annotations

import json
import os
import sys

import checks
import run
import workloads


def main() -> int:
    cli = run.load_cli(os.getcwd())
    if cli is None:
        return 2

    workdir = os.path.join(run.WORKDIR, "work")
    workloads.write_set_files(workdir, workloads.universe_set_files(workdir))
    digests = {}
    for name in workloads.WORKLOADS:
        for argv in workloads.universe(name, workdir):
            _, status, stdout, error = run.call(cli, argv)
            if status != 0:
                print(f"pin: {' '.join(argv)} exited {status}\n{error or stdout}", file=sys.stderr)
                return 1
            digests[" ".join(argv)] = checks.digest(stdout)

    seeds = {}
    for name in workloads.WORKLOADS:
        seeds[name] = {}
        for seed in checks.SHIPPED_SEEDS:
            workload = workloads.generate(name, seed, workdir)
            workloads.write_set_files(workdir, workload.set_files)
            outputs, entries = [], []
            for request in workload.requests:
                _, status, stdout, error = run.call(cli, request.argv)
                pinned = digests.get(request.key)
                reason = error or checks.check(request, status, stdout, pinned, outputs)
                if reason is not None:
                    print(f"pin: {name} seed {seed}: {request.key}: {reason}", file=sys.stderr)
                    return 1
                outputs.append(stdout)
                entries.append([request.key, checks.digest(stdout)])
            seeds[name][str(seed)] = entries

    with open(checks.GOLDEN_PATH, "w", encoding="utf-8") as handle:
        json.dump({"digests": digests, "seeds": seeds}, handle, indent=0, sort_keys=True)
        handle.write("\n")
    print(f"pinned {len(digests)} requests and seeds {list(checks.SHIPPED_SEEDS)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
