"""Deterministic fan-out over a process pool.

Every sharded entry point cuts its input into at most 2**SHARD_BITS
shards that depend on the input alone; the worker count only picks how
many processes run them.  Shards are dispatched in order and results are
collected in submission order, so parallel runs merge to exactly the
sequential answer.  A call that runs more than one process starts its
own pool and shuts it down before it returns, so no worker outlives it.

The pool machinery loads with the first pool: ``run_sharded`` imports
``concurrent.futures`` (and with it ``logging``) only once it needs more
than one process, and ``concurrent.futures`` imports its ``process``
submodule, and with it ``multiprocessing``, only when
``futures.ProcessPoolExecutor`` is first read, so a process that runs
every call in the caller never loads them.
"""

from __future__ import annotations

import os
from typing import Callable, List, Sequence, Tuple

from .errors import ParameterError

# the catalog search fixes the choices on its first SHARD_BITS orbits, one
# fewer per doubling of the sub-searches that share its sharded call; the
# simulation cuts its trials into blocks of 64 << SHARD_BITS
SHARD_BITS = 6


def require_workers(workers: int) -> None:
    """Refuse a worker count below one; public entry points call this first."""
    if workers < 1:
        raise ParameterError(f"workers must be >= 1, got {workers}")


def shard_ranges(total: int) -> List[range]:
    """range(total) cut into consecutive blocks of whole 64-item words.

    Blocks hold 64 << SHARD_BITS items; past 2**SHARD_BITS blocks they
    grow, in whole words, so there are never more.  A bit-sliced step costs
    about in proportion to its block's words: at span 2500 a simulation
    step takes about 6 us at one word, where it runs on numpy scalars,
    45-55 us at 16 and 0.28 ms at 64 on two shared CPUs.  So a large block
    saves little per item beyond the fixed cost of each numpy call; what it
    buys is few shards.
    """
    words = -(-total // 64)
    step = 64 * max(1 << SHARD_BITS, -(-words // (1 << SHARD_BITS)))
    return [range(lo, min(lo + step, total)) for lo in range(0, total, step)]


def _pool_size(workers: int, shard_count: int) -> int:
    """Processes worth starting: no more than the shards or the usable CPUs."""
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:  # no affinity call on macOS and Windows
        cpus = os.cpu_count() or 1
    return min(workers, shard_count, cpus)


def run_sharded(fn: Callable, shards: Sequence[Tuple], workers: int) -> List:
    """fn(*args) for every shard, in order, on at most _pool_size processes.

    One process runs the shards in the caller; more run them on a pool of
    the call's own, shut down before the call returns.
    """
    size = _pool_size(workers, len(shards))
    if size <= 1:
        return [fn(*args) for args in shards]
    from concurrent import futures

    # map's result iterator cancels the queued shards when one raises
    columns = list(zip(*shards))
    try:
        with futures.ProcessPoolExecutor(max_workers=size) as pool:
            return list(pool.map(fn, *columns))
    # evaluated only once a pool has started, so futures.process is loaded
    except futures.process.BrokenProcessPool:
        # a worker died mid-call; shards are pure functions of their
        # arguments, so they run once more on a fresh pool
        with futures.ProcessPoolExecutor(max_workers=size) as pool:
            return list(pool.map(fn, *columns))
