"""Chunk RNG streams and worker-count-invariant chunk execution.

Replications are grouped into chunks whose bounds are a function of the
sample size n alone.  Each chunk owns one generator keyed by (master_seed,
point_index, index of the chunk's first replication) and draws all of its
replications from it in order, so results depend only on those integers and
never on execution order.  Partial results are combined in chunk-index order.
Together these make the output byte-identical for any worker count.
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


def run_chunks(fn, n_reps: int, n: int, workers: int, payload: tuple) -> list:
    """Run fn(start, stop, payload) over fixed chunks; results in chunk order.

    fn must be a module-level function (it is pickled for worker processes).
    """
    bounds = chunk_bounds(n_reps, chunk_size(n))
    if workers <= 1 or len(bounds) == 1:
        return [fn(s, e, payload) for s, e in bounds]
    with ProcessPoolExecutor(max_workers=workers) as ex:
        futures = [ex.submit(fn, s, e, payload) for s, e in bounds]
        return [f.result() for f in futures]
