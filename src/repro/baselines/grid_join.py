"""Grid index join — the paper's exact index-based baseline.

Points are bucketed into a uniform grid once; each region then fetches
the points of the cells its bounding box overlaps and refines them with
exact point-in-polygon tests.  This mirrors the (GPU) index-join
comparator in the Raster Join evaluation: correct, but every candidate
point pays a polygon test whose cost grows with boundary complexity.
"""

from __future__ import annotations

import time

from ..core.aggregates import PartialAggregate, accumulate_exact
from ..core.query import SpatialAggregation
from ..core.regions import RegionSet
from ..core.result import AggregationResult
from ..index import PointGridIndex
from ..table import PointTable


def grid_index_join(
    table: PointTable,
    regions: RegionSet,
    query: SpatialAggregation,
    grid_resolution: int = 128,
    index: PointGridIndex | None = None,
) -> AggregationResult:
    """Exact spatial aggregation through a uniform point grid.

    ``index`` may be passed to reuse a prebuilt grid over the *unfiltered*
    table (the executor caches it); filters are applied to the candidate
    sets after retrieval, mirroring how an index-based system would
    post-filter.
    """
    t0 = time.perf_counter()
    mask = query.filter_mask(table)
    values = query.values_for(table)
    t_filter = time.perf_counter() - t0

    t1 = time.perf_counter()
    if index is None:
        index = PointGridIndex.over(table.x, table.y,
                                    cells=grid_resolution)
    t_index = time.perf_counter() - t1

    t2 = time.perf_counter()
    xy = table.xy
    part = PartialAggregate.empty(query.agg, len(regions))
    candidates_tested = 0
    for gid in range(len(regions)):
        geom = regions[gid]
        cand = index.query_bbox(geom.bbox)
        if len(cand) == 0:
            continue
        cand = cand[mask[cand]]
        if len(cand) == 0:
            continue
        candidates_tested += len(cand)
        inside = geom.contains_points(xy[cand])
        if not inside.any():
            continue
        matched = cand[inside]
        accumulate_exact(
            part, gid,
            values[matched] if values is not None else None,
            int(len(matched)))
    t_join = time.perf_counter() - t2

    return AggregationResult(
        regions=regions,
        values=part.finalize(),
        method="grid-index-join",
        exact=True,
        stats={
            "points_total": len(table),
            "points_after_filter": int(mask.sum()),
            "candidates_tested": candidates_tested,
            "time_filter_s": t_filter,
            "time_index_build_s": t_index,
            "time_join_s": t_join,
        },
    )
