"""Chunk RNG streams and worker-count-invariant chunk execution.

Replications are grouped into chunks whose bounds are a function of the
sample size n alone.  Each chunk owns one generator keyed by (master_seed,
point_index, index of the chunk's first replication) and draws all of its
replications from it in order, so results depend only on those integers and
never on execution order.  Partial results are combined in chunk-index order.
Together these make the output byte-identical for any worker count.

Chunks fix the streams; tasks only schedule them.  A task is a run of whole
consecutive chunks.  The first chunk always runs in the calling process, and
worker processes start only when, at the first chunk's values per
replication, the other chunks hold at least two tasks of
_TARGET_DRAWS_PER_TASK values.  Results come back one per chunk, in chunk
order.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor

import numpy as np

_TARGET_DRAWS_PER_CHUNK = 4_000_000  # values per full-sample chunk
_TARGET_DRAWS_PER_TASK = 1_000_000  # values per task sent to a worker process
_MIN_CHUNK = 128
_MAX_CHUNK = 8192


def rep_rng(master_seed: int, point_index: int, rep_index: int) -> np.random.Generator:
    """The generator owned by the chunk of one schedule point that starts at
    replication rep_index."""
    return np.random.default_rng([master_seed, point_index, rep_index])


def chunk_size(n: int) -> int:
    """Replications per chunk, a function of the sample size n alone: a chunk
    of full samples holds about _TARGET_DRAWS_PER_CHUNK observations.  Chunks
    that draw fewer values per replication keep the same bounds (and so the
    same streams); run_chunks groups them into tasks by the values they draw."""
    return max(_MIN_CHUNK, min(_MAX_CHUNK, int(_TARGET_DRAWS_PER_CHUNK // max(n, 1))))


def chunk_bounds(n_reps: int, size: int) -> list[tuple[int, int]]:
    return [(s, min(s + size, n_reps)) for s in range(0, n_reps, size)]


def _run_task(fn, bounds: list, payload) -> list:
    return [fn(s, e, payload) for s, e in bounds]


def _tasks(bounds: list, drawn: int, workers: int) -> list:
    """The chunks after the first, as tasks for a process pool: runs of whole
    consecutive chunks.  Empty when they should run in this process instead.

    `drawn` is what the first chunk drew.  At its rate per replication the
    other chunks hold `full` tasks of _TARGET_DRAWS_PER_TASK values, but no
    more than they have chunks of full size, so a short tail alone never
    starts a pool; a pool needs at least two.  The chunks are then spread
    evenly, `per` or `per + 1` a task, over at least one task for each
    process in each round the pool needs, so that no process idles while
    another runs a last, longer task.
    """
    (start, stop), rest = bounds[0], bounds[1:]
    values = drawn * (bounds[-1][1] - stop) // (stop - start)
    whole = sum(e - s == stop - start for s, e in rest)
    full = min(whole, values // _TARGET_DRAWS_PER_TASK)
    if workers < 2 or full < 2:
        return []
    procs = min(workers, full)
    per = max(1, len(rest) // (-(-full // procs) * procs))
    k = len(rest) // per
    cuts = [len(rest) * i // k for i in range(k + 1)]
    return [rest[a:b] for a, b in zip(cuts, cuts[1:])]


def run_chunks(fn, n_reps: int, n: int, workers: int, payload) -> list:
    """[fn(start, stop, payload) for each chunk], in chunk order.

    fn returns a tuple whose last item counts the values the chunk drew.  The
    first chunk runs here; the rest run here too unless _tasks groups them
    for a pool of up to `workers` processes (fn is then pickled, so it must be
    a module-level function).
    """
    bounds = chunk_bounds(n_reps, chunk_size(n))
    results = [fn(*bounds[0], payload)]
    tasks = _tasks(bounds, results[0][-1], workers)
    if not tasks:
        return results + _run_task(fn, bounds[1:], payload)
    pool = ProcessPoolExecutor(max_workers=min(workers, len(tasks)))
    try:
        futures = [pool.submit(_run_task, fn, task, payload) for task in tasks]
        for f in futures:
            results += f.result()
    finally:
        pool.shutdown(cancel_futures=True)
    return results
