"""Retired process-parallel configuration, kept inert for old callers.

The engine runs in one process.  Point passes, the batched polygon pass,
the tiled joins and the pyramid's cold-block scatter are all serial code
(``docs/raster_join.md`` §8 has the measurements that retired each fork),
so nothing here selects an execution path any more.

Two names survive because the frozen benchmark (``bench/``) imports
them: :class:`ParallelConfig`, a field-only value the engine accepts and
ignores, and :func:`parallel_bounded_raster_join`, an alias of the
serial bounded join.  Both go when ROADMAP item 3 retires the
``core.parallel.*`` and ``shard.*`` probes.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..raster import FragmentTable, Viewport
from ..table import PointTable
from .bounded import bounded_raster_join
from .query import SpatialAggregation
from .regions import RegionSet
from .result import AggregationResult


@dataclass(frozen=True)
class ParallelConfig:
    """Ignored.  The fields of the retired worker/shard configuration,
    so ``SpatialAggregationEngine(parallel=ParallelConfig(...))`` still
    constructs; no field changes what the engine runs."""

    workers: int | None = None
    chunk_size: int | None = None
    serial_threshold: int | None = None
    shards: int | None = None


def parallel_bounded_raster_join(
    table: PointTable,
    regions: RegionSet,
    query: SpatialAggregation,
    viewport: Viewport,
    fragments: FragmentTable | None = None,
    config=None,
) -> AggregationResult:
    """Deprecated alias of :func:`~repro.core.bounded.bounded_raster_join`;
    ``config`` is ignored."""
    return bounded_raster_join(table, regions, query, viewport,
                               fragments=fragments)
