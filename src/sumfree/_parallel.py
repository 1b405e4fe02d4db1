"""Deterministic fan-out over a process pool.

Every sharded entry point cuts its input into at most 2**SHARD_BITS
shards that depend on the input alone; the worker count only picks how
many processes run them.  Shards are dispatched in order and results are
collected in submission order, so parallel runs merge to exactly the
sequential answer.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from typing import Callable, List, Sequence, Tuple

from .errors import ParameterError

# the DFS searches fix the choices on their first SHARD_BITS positions;
# the simulation cuts its trials into 2**SHARD_BITS blocks
SHARD_BITS = 6


def require_workers(workers: int) -> None:
    """Refuse a worker count below one; public entry points call this first."""
    if workers < 1:
        raise ParameterError(f"workers must be >= 1, got {workers}")


def shard_ranges(total: int) -> List[range]:
    """range(total) cut into at most 2**SHARD_BITS consecutive blocks."""
    step = -(-total // (1 << SHARD_BITS))
    return [range(lo, min(lo + step, total)) for lo in range(0, total, step)]


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
