"""Forked scatter-gather for the store paths that rasterize polygons.

Point passes run serial, so the bounded store scan never comes here.
The coordinator (:mod:`repro.shard.coordinator`) forks workers over the
same mmap'd store (zero-copy, copy-on-write) for the two store paths
whose tasks are dominated by per-tile or per-block work — tile ranges
of the tiled join, cold blocks of the canvas pyramid — and merges the
per-shard partials (region vectors, pyramid block deltas) in shard
order, which keeps answers bitwise-equal to single-process execution.
Each tile shard pipelines page-in against compute by advising the
kernel about its *next* partitions while it scatters the current one
(:mod:`repro.shard.prefetch`).
"""

from .coordinator import prescatter_blocks, scatter_gather_tiles
from .prefetch import PartitionPrefetcher

__all__ = [
    "PartitionPrefetcher",
    "prescatter_blocks",
    "scatter_gather_tiles",
]
