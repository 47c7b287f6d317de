"""Naive exact join: test every point against every region.

No index, no raster — the O(|P| * |R|) comparator.  Exists as the
unambiguous ground truth for small inputs and as the lower anchor of the
performance experiments.
"""

from __future__ import annotations

import time


from ..core.aggregates import PartialAggregate, accumulate_exact
from ..core.query import SpatialAggregation
from ..core.regions import RegionSet
from ..core.result import AggregationResult
from ..table import PointTable


def naive_join(table: PointTable, regions: RegionSet,
               query: SpatialAggregation) -> AggregationResult:
    """Exact brute-force spatial aggregation."""
    t0 = time.perf_counter()
    mask = query.filter_mask(table)
    values = query.values_for(table)
    xy = table.xy[mask]
    if values is not None:
        values = values[mask]

    part = PartialAggregate.empty(query.agg, len(regions))
    for gid in range(len(regions)):
        inside = regions[gid].contains_points(xy)
        if not inside.any():
            continue
        accumulate_exact(
            part, gid,
            values[inside] if values is not None else None,
            int(inside.sum()))
    elapsed = time.perf_counter() - t0
    return AggregationResult(
        regions=regions,
        values=part.finalize(),
        method="naive-join",
        exact=True,
        stats={
            "points_total": len(table),
            "points_after_filter": int(mask.sum()),
            "time_total_s": elapsed,
        },
    )
