"""Process parallelism — only around per-tile / per-block rasterization.

**Point passes are serial.**  The raster join's point pass is one blend
of the points onto a canvas: a memory-bound NumPy pass of a few
milliseconds at this repo's sizes.  Forking a pool around it costs
60+ ms of fork and copy-on-write page-table work and lost 2-17x on
every workload it was measured on (``docs/raster_join.md`` §8 has the
table), so no point pass, index join, cube build or store partition
scan forks: they are the serial code, unconditionally.

**So is the polygon pass of one viewport.**  The batched sweep in
:mod:`repro.raster.fragments` builds a whole region set's fragment
table in 3-30 ms — less than a pool costs to start — so
:meth:`ExecutionContext.fragments_for` calls it directly.

What still forks is work that repeats that pass many times: one
rasterization per canvas tile or per pyramid block.  This module keeps
what those sites share:

* :func:`_fork_map` — run a task closure over a ``fork`` pool.  Inputs
  reach workers copy-on-write (nothing is pickled but tiny task tuples
  and per-task results); without ``fork`` support, with one worker or
  with one task, the same tasks run in-process, so results are
  identical and the test matrix stays portable.  It has exactly three
  callers: :func:`repro.core.tiling.tiled_bounded_raster_join`,
  :func:`repro.shard.scatter_gather_tiles` and
  :func:`repro.shard.prescatter_blocks`.
* :class:`ParallelConfig` — worker/shard counts plus the two decisions
  that select a fork from something the code observes: point count for
  the tiled join's tile ranges (:meth:`~ParallelConfig.decide`),
  surviving rows/partitions for the store's tiled and pyramid paths
  (:meth:`~ParallelConfig.decide_shards`).
"""

from __future__ import annotations

import math
import multiprocessing
import os
from dataclasses import dataclass, replace

import numpy as np

from ..raster import FragmentTable, Viewport
from ..table import PointTable
from .bounded import bounded_raster_join
from .query import SpatialAggregation
from .regions import RegionSet
from .result import AggregationResult

#: Below this many points (or surviving store rows) nothing forks: a
#: pool costs tens of milliseconds before its first task runs.
PARALLEL_POINT_THRESHOLD = 150_000


def _fork_available() -> bool:
    return "fork" in multiprocessing.get_all_start_methods()


@dataclass(frozen=True)
class ParallelConfig:
    """Worker/shard counts + the fork decisions.

    ``workers=None`` resolves to ``os.cpu_count()``; an explicit number
    is honored even beyond the core count (useful for testing the
    multi-worker code path on small machines).
    """

    workers: int | None = None
    chunk_size: int = 250_000
    serial_threshold: int = PARALLEL_POINT_THRESHOLD
    #: Shard count for the store's tiled / pyramid fan-out
    #: (``repro.shard``); ``None`` resolves like ``workers``.
    shards: int | None = None
    #: How many partitions ahead each shard issues ``madvise(WILLNEED)``
    #: for, so page-in overlaps the current partition's scatter.
    prefetch_depth: int = 1

    def resolve_workers(self) -> int:
        if self.workers is not None:
            return max(1, int(self.workers))
        return max(1, os.cpu_count() or 1)

    def with_workers(self, workers: int | None) -> "ParallelConfig":
        return replace(self, workers=workers)

    def resolve_shards(self) -> int:
        if self.shards is not None:
            return max(1, int(self.shards))
        return self.resolve_workers()

    def with_shards(self, shards: int | None,
                    prefetch_depth: int | None = None) -> "ParallelConfig":
        cfg = replace(self, shards=shards)
        if prefetch_depth is not None:
            cfg = replace(cfg, prefetch_depth=max(0, int(prefetch_depth)))
        return cfg

    # -- decisions ---------------------------------------------------------

    def effective_workers(self, n_items: int) -> int:
        """Workers that would actually get work for ``n_items`` points."""
        chunks = math.ceil(n_items / max(1, self.chunk_size))
        return max(1, min(self.resolve_workers(), chunks))

    def decide(self, n_points: int) -> dict:
        """Fork decision for the tiled join over ``n_points`` points
        (the only in-memory backend declared ``parallelizable``)."""
        workers = self.resolve_workers()
        if workers <= 1:
            return {"use": False, "workers": workers,
                    "threshold": self.serial_threshold,
                    "reason": "one worker available"}
        if not _fork_available():
            return {"use": False, "workers": workers,
                    "threshold": self.serial_threshold,
                    "reason": "fork start method unavailable"}
        if n_points < self.serial_threshold:
            return {"use": False, "workers": workers,
                    "threshold": self.serial_threshold,
                    "reason": f"{n_points} points below serial "
                              f"threshold {self.serial_threshold}"}
        effective = self.effective_workers(n_points)
        if effective <= 1:
            return {"use": False, "workers": workers,
                    "threshold": self.serial_threshold,
                    "reason": "input fits in one chunk"}
        return {"use": True, "workers": effective,
                "threshold": self.serial_threshold,
                "reason": f"{n_points} points across {effective} workers"}

    def decide_shards(self, n_partitions: int, n_rows: int) -> dict:
        """Sharded-vs-serial decision for the store's tiled and pyramid
        paths (the bounded partition scan is a point pass: serial).

        Below the row threshold — or with fewer than two surviving
        partitions — the coordinator stays serial.  The effective shard
        count never exceeds the surviving partition count (empty shards
        would only pay fork overhead for nothing).
        """
        shards = self.resolve_shards()
        base = {"shards": shards, "prefetch_depth": self.prefetch_depth,
                "threshold": self.serial_threshold}
        if shards <= 1:
            return {"use": False, "reason": "one shard configured", **base}
        if not _fork_available():
            return {"use": False,
                    "reason": "fork start method unavailable", **base}
        if n_partitions < 2:
            return {"use": False,
                    "reason": f"{n_partitions} surviving partition(s)",
                    **base}
        if n_rows < self.serial_threshold:
            return {"use": False,
                    "reason": f"{n_rows} rows below serial threshold "
                              f"{self.serial_threshold}", **base}
        effective = min(shards, n_partitions)
        return {"use": True, "reason": f"{n_rows} rows in {n_partitions} "
                                       f"partitions across {effective} "
                                       f"shards",
                **{**base, "shards": effective}}


# -- fork-based task fan-out -------------------------------------------------

#: Set immediately before a pool fork so children inherit the task
#: closure (and everything it captures) copy-on-write — nothing large is
#: ever pickled through the pool.
_FORK_STATE: dict = {}


def _dispatch(task):
    return _FORK_STATE["fn"](*task)


def _fork_map(fn, tasks: list[tuple], workers: int) -> tuple[list, bool]:
    """Run ``fn(*task)`` for every task, forking a pool when it pays.

    Returns (results, pooled): ``pooled`` is False when the tasks ran
    in-process (one worker, one task, or no ``fork`` support), which
    exercises the identical chunked code path without process overhead.
    """
    if workers <= 1 or len(tasks) <= 1 or not _fork_available():
        return [fn(*task) for task in tasks], False
    _FORK_STATE["fn"] = fn
    ctx = multiprocessing.get_context("fork")
    try:
        with ctx.Pool(processes=min(workers, len(tasks))) as pool:
            return pool.map(_dispatch, tasks), True
    finally:
        _FORK_STATE.clear()


def _even_ranges(n: int, parts: int) -> list[tuple[int, int]]:
    """Split ``range(n)`` into ``parts`` near-even contiguous ranges."""
    parts = max(1, min(parts, n)) if n else 1
    bounds = np.linspace(0, n, parts + 1).astype(np.int64)
    return [(int(bounds[i]), int(bounds[i + 1])) for i in range(parts)]


# -- deprecated alias ---------------------------------------------------------


def parallel_bounded_raster_join(
    table: PointTable,
    regions: RegionSet,
    query: SpatialAggregation,
    viewport: Viewport,
    fragments: FragmentTable | None = None,
    config: ParallelConfig | None = None,
) -> AggregationResult:
    """Deprecated alias of :func:`~repro.core.bounded.bounded_raster_join`.

    ``config`` is ignored: the point pass is serial.  Kept only because
    the frozen benchmark (``bench/probes.py``) imports the name; it goes
    when the ``core.parallel.*`` probes are retired.
    """
    return bounded_raster_join(table, regions, query, viewport,
                               fragments=fragments)
