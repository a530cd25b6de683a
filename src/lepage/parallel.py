"""Deterministic chunk scheduling for Monte Carlo work.

:func:`map_replicates` is the one place that knows the chunk plan.
Replicates are partitioned into fixed-size chunks of
``max(1, min(1024, 2**22 // events_per_replicate))`` replicates (a pure
function of the replicate count and the events per replicate, never of the
thread count); chunk ``c`` draws from ``stream.substream(c)``, an SFC64
generator keyed by hashing its name, so no chunk needs another's generator
state.  The plan is part of stream layout 2 (``rng.STREAM_LAYOUT``): chunks
of 1024 rather than 4096 replicates balance small thread counts.  Threads
only decide which worker executes a chunk, and results come back in chunk
order, so outputs are byte-identical for any ``threads`` setting.  The
series samplers reduce each chunk in small tiles, so each thread adds one
tile's memory, not a chunk's.

:func:`replicate_mean_se` is the one mean-and-standard-error estimator: every
Monte Carlo report concatenates its per-replicate values in chunk order and
reduces them there, so no estimate depends on which thread ran which chunk.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor

import numpy as np

__all__ = ["resolve_threads", "chunk_runner", "chunk_size", "map_replicates", "replicate_mean_se"]

# target number of jump events held in memory per chunk
_EVENTS_PER_CHUNK = 1 << 22
_MAX_CHUNK = 1024


def resolve_threads(threads) -> int:
    if threads in (None, "auto"):
        return os.cpu_count() or 1
    t = int(threads)
    if t < 1:
        raise ValueError(f"threads must be >= 1 or 'auto', got {threads!r}")
    return t


def chunk_runner(threads):
    """A ``run(fn, ranges)`` callable returning ``[fn(c, m) for c, m in ranges]``, on a pool only for two or more."""
    t = resolve_threads(threads)

    def run(fn, ranges):
        if t <= 1 or len(ranges) <= 1:
            return [fn(c, m) for c, m in ranges]
        with ThreadPoolExecutor(max_workers=t) as pool:
            futures = [pool.submit(fn, c, m) for c, m in ranges]
            return [f.result() for f in futures]

    return run


def chunk_size(events_per_replicate: int) -> int:
    """Replicates per chunk: ``max(1, min(1024, 2**22 // events_per_replicate))``."""
    return max(1, min(_MAX_CHUNK, _EVENTS_PER_CHUNK // max(1, events_per_replicate)))


def map_replicates(fn, stream, total: int, events_per_replicate: int, threads=1) -> list:
    """``[fn(stream.substream(c), m) for each chunk c of m replicates]``, in chunk order.

    Chunks hold ``chunk_size(events_per_replicate)`` replicates, the last one
    fewer.  ``total == 0`` still runs one empty chunk, so callers get
    correctly shaped empty results.
    """
    size = chunk_size(events_per_replicate)
    n_chunks = max(1, -(-total // size))
    ranges = [(c, min(size, total - c * size)) for c in range(n_chunks)]
    return chunk_runner(threads)(lambda c, m: fn(stream.substream(c), m), ranges)


def replicate_mean_se(rows) -> tuple[np.ndarray, np.ndarray]:
    """Each row's mean and standard error ``std(ddof=1) / sqrt(R)``.

    ``rows`` is (entries, R): entry ``e``'s per-replicate values, concatenated
    in chunk order, with ``R >= 2``.  Each entry is reduced as one contiguous
    row.  An overflow reads inf or nan, without a warning, for the caller to
    report.
    """
    rows = np.ascontiguousarray(rows, dtype=np.float64)
    with np.errstate(over="ignore", invalid="ignore"):
        return rows.mean(axis=1), rows.std(axis=1, ddof=1) / math.sqrt(rows.shape[1])
