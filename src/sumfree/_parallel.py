"""Deterministic fan-out over a process pool.

Shards are dispatched in order and results are collected in submission
order, so parallel runs merge to exactly the sequential answer.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from typing import Callable, List, Sequence, Tuple


def _pool_size(workers: int, shard_count: int) -> int:
    """Processes worth starting: no more than the shards or the usable CPUs."""
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:  # no affinity call on macOS and Windows
        cpus = os.cpu_count() or 1
    return min(workers, shard_count, cpus)


def run_sharded(fn: Callable, shards: Sequence[Tuple], workers: int) -> List:
    size = _pool_size(workers, len(shards))
    if size <= 1:
        return [fn(*args) for args in shards]
    with ProcessPoolExecutor(max_workers=size) as pool:
        futures = [pool.submit(fn, *args) for args in shards]
        return [f.result() for f in futures]
