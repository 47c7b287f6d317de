"""One-pass evaluation of several aggregates (MRT analog).

The GPU Raster Join computes several aggregates in a single render pass
by blending into *multiple render targets*.  The software equivalent:
for queries that share a filter list, the filter mask, the point->pixel
projection and the fragment join are computed once, and only the
per-aggregate canvases differ.  Urbane's views are the consumer — a map
view showing COUNT while the exploration view wants AVG(fare) and
SUM(severity) over the same brushed window.
"""

from __future__ import annotations

import time

from ..raster import FragmentTable, Viewport, build_fragment_table
from .aggregates import canvas_kinds
from .bounded import join_with_bounds
from .pipeline import Window, as_source, fill, refill
from .query import SpatialAggregation
from .regions import RegionSet
from .result import AggregationResult


def bounded_raster_join_multi(
    table,
    regions: RegionSet,
    queries: list[SpatialAggregation],
    viewport: Viewport,
    fragments: FragmentTable | None = None,
) -> list[AggregationResult]:
    """Evaluate several bounded raster joins, sharing render passes.

    Queries are grouped by identical filter lists; each group runs one
    filter → project pass over the point source, then folds one canvas
    set per needed (aggregate, value-column) pair.  Results come back
    aligned with ``queries``.
    """
    t0 = time.perf_counter()
    source = as_source(table)
    if fragments is None:
        fragments = build_fragment_table(list(regions.geometries), viewport)

    results: list[AggregationResult | None] = [None] * len(queries)
    groups: dict[tuple, list[int]] = {}
    for i, query in enumerate(queries):
        groups.setdefault(query.filters, []).append(i)

    for indices in groups.values():
        rep = queries[indices[0]]
        chunks = fill(source, rep, Window(viewport), (), keep=True).chunks
        after_filter = source.filtered_count(rep)
        canvas_sets: dict[tuple, dict] = {}
        for i in indices:
            query = queries[i]
            key = (query.agg, query.value_column)
            if key not in canvas_sets:
                canvas_sets[key] = refill(chunks, source, query,
                                          canvas_kinds(query.agg),
                                          viewport.num_pixels)
            canvases = canvas_sets[key]
            estimate, lower, upper = join_with_bounds(
                fragments, canvases, query.agg)
            results[i] = AggregationResult(
                regions=regions,
                values=estimate,
                method="bounded-raster-join-multi",
                lower=lower,
                upper=upper,
                exact=False,
                stats={
                    "points_after_filter": after_filter,
                    "shared_group_size": len(indices),
                },
            )

    elapsed = time.perf_counter() - t0
    for result in results:
        result.stats["time_multi_total_s"] = elapsed
        result.stats["queries_in_pass"] = len(queries)
    return results  # type: ignore[return-value]
