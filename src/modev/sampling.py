"""Chunk RNG streams, the worker pool of one rate point, and
worker-count-invariant chunk execution.

Replications are grouped into chunks whose bounds are a function of the
sample size n alone.  Each chunk owns one generator keyed by (master_seed,
point_index, index of the chunk's first replication) and draws all of its
replications from it in order, so results depend only on those integers and
never on execution order.  Partial results are combined in chunk-index order.
Together these make the output byte-identical for any worker count.

One PointPool serves one rate point: its pilot waves and its main chunks.
Its processes start on the first stage with more than one task and stop when
the point is done, so workers never carry heap from one point to the next.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor

import numpy as np

_TARGET_DRAWS_PER_CHUNK = 4_000_000
_MIN_CHUNK = 128
_MAX_CHUNK = 8192


def rep_rng(master_seed: int, point_index: int, rep_index: int) -> np.random.Generator:
    """The generator owned by the chunk of one schedule point that starts at
    replication rep_index."""
    return np.random.default_rng([master_seed, point_index, rep_index])


def chunk_size(n: int) -> int:
    """Replications per chunk; depends only on the per-replication draw count."""
    return max(_MIN_CHUNK, min(_MAX_CHUNK, int(_TARGET_DRAWS_PER_CHUNK // max(n, 1))))


def chunk_bounds(n_reps: int, size: int) -> list[tuple[int, int]]:
    return [(s, min(s + size, n_reps)) for s in range(0, n_reps, size)]


class PointPool:
    """Up to `workers` processes for one rate point, started on first need.

    Use it as a context manager: leaving the block stops the processes.
    """

    def __init__(self, workers: int):
        self.workers = max(1, workers)
        self._executor = None

    def map(self, fn, tasks: list) -> list:
        """[fn(*task) for task in tasks], in task order.

        Runs in this process when there is one worker or at most one task;
        otherwise fn must be a module-level function (it is pickled).
        """
        if self.workers == 1 or len(tasks) <= 1:
            return [fn(*task) for task in tasks]
        if self._executor is None:
            self._executor = ProcessPoolExecutor(max_workers=self.workers)
        futures = [self._executor.submit(fn, *task) for task in tasks]
        return [f.result() for f in futures]

    def close(self) -> None:
        if self._executor is not None:
            self._executor.shutdown(cancel_futures=True)
            self._executor = None

    def __enter__(self) -> PointPool:
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def run_chunks(fn, n_reps: int, n: int, pool: PointPool, payload) -> list:
    """Run fn(start, stop, payload) over fixed chunks on the point's pool;
    results in chunk order."""
    return pool.map(fn, [(s, e, payload) for s, e in chunk_bounds(n_reps, chunk_size(n))])
