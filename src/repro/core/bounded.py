"""Bounded Raster Join.

The fast, approximate variant: both sides of the join are *drawn*.

1. **Point pass** — filtered points are scattered onto value canvases
   with additive (or min/max) blending, exactly like rendering points
   with blending enabled (:mod:`repro.core.pipeline`, shared by every
   join and every point source).
2. **Polygon pass** — each region's fragments (pixels whose center the
   region covers) are generated by scanline rasterization.
3. **Join** — each region folds the blended values of its FULL pixel
   runs and its center-covered boundary pixels into its accumulator.

Cost is O(|P| + #fragments), independent of polygon complexity per
point — the asymptotic win over index joins.  The only error source is
points in pixels straddling a boundary, which yields both the geometric
guarantee (<= one pixel diagonal) and hard per-region numeric bounds for
additive aggregates.
"""

from __future__ import annotations

import time

import numpy as np

from ..obs.trace import span
from ..raster import (
    FragmentTable,
    Viewport,
    build_fragment_table,
    gather_reduce,
    gather_runs,
    gather_sum,
)
from .aggregates import (
    BOUNDABLE_AGGREGATES,
    COUNT,
    PartialAggregate,
    canvas_kinds,
)
from .bounds import boundary_mass_bounds, epsilon_for_viewport
from .pipeline import Window, as_source, fill
from .query import SpatialAggregation
from .regions import RegionSet
from .result import AggregationResult


def gather_partial(part: PartialAggregate, canvases: dict,
                   fragments: FragmentTable,
                   covered: bool = True) -> PartialAggregate:
    """The join step: fold every region's FULL runs — and with
    ``covered`` its center-covered boundary pixels — into the per-region
    partial ``part``.

    Runs fold through one :func:`~repro.raster.gather_runs` per canvas,
    boundary pixels pair by pair; every raster path (bounded, pyramid,
    tiled, store, the accurate join's interior) joins here, so they all
    fold the same values in the same order.
    """
    n = fragments.num_polygons
    starts, stops, polys = fragments.intervals.full_runs_by_start()
    if covered:
        pix = fragments.covered_boundary_pixels
        pix_polys = fragments.covered_boundary_polys

    def gather(kind, ufunc, fill):
        canvas = canvases[kind]
        out = gather_runs(canvas, starts, stops, polys, n, ufunc, fill)
        if not covered:
            return out
        if ufunc is np.add:
            return out + gather_sum(canvas, pix, pix_polys, n)
        return ufunc(out, gather_reduce(canvas, pix, pix_polys, n, ufunc,
                                        fill))

    if part.counts is not None:
        part.counts += gather("count", np.add, 0.0)
    if part.sums is not None:
        part.sums += gather("sum", np.add, 0.0)
    if part.mins is not None:
        np.minimum(part.mins, gather("min", np.minimum, np.inf),
                   out=part.mins)
    if part.maxs is not None:
        np.maximum(part.maxs, gather("max", np.maximum, -np.inf),
                   out=part.maxs)
    return part


def _join_covered(fragments: FragmentTable, canvases: dict, agg: str
                  ) -> np.ndarray:
    """Join step over all center-covered pixels (FULL runs + covered
    boundary) — the pure raster estimate."""
    return gather_partial(PartialAggregate.empty(agg, fragments.num_polygons),
                          canvases, fragments).finalize()


def bounded_raster_join(
    table,
    regions: RegionSet,
    query: SpatialAggregation,
    viewport: Viewport,
    fragments: FragmentTable | None = None,
) -> AggregationResult:
    """Run the bounded raster join at the given canvas resolution.

    ``table`` is a point source — a bare :class:`~repro.table.PointTable`
    or a store's pruned partitions (:mod:`repro.core.pipeline`).
    ``fragments`` may be passed in to reuse a cached polygon render pass
    (the executor does this when only filters change between queries).
    """
    source = as_source(table)
    t0 = time.perf_counter()
    if fragments is None:
        with span("fragments"):
            fragments = build_fragment_table(list(regions.geometries),
                                             viewport)
    t_polygons = time.perf_counter() - t0

    t1 = time.perf_counter()
    with source.span():
        points = fill(source, query, Window(viewport),
                      canvas_kinds(query.agg))
    canvases = points.canvases
    t_points = time.perf_counter() - t1

    t2 = time.perf_counter()
    with span("gather"):
        estimate = _join_covered(fragments, canvases, query.agg)
        lower = upper = None
        if query.agg in BOUNDABLE_AGGREGATES:
            mass = canvases["count" if query.agg == COUNT else "mass"]
            lower, upper = boundary_mass_bounds(fragments, estimate, mass)
    t_join = time.perf_counter() - t2

    stats = {
        "points_total": len(source.table),
        "points_after_filter": source.filtered_count(query),
        "points_in_viewport": points.points,
        "time_polygon_pass_s": t_polygons,
        "time_point_pass_s": t_points,
        "time_join_s": t_join,
        "interior_fragments": fragments.num_interior_fragments,
        "boundary_fragments": fragments.num_boundary_fragments,
        "canvas_pixels": viewport.num_pixels,
        "epsilon_world_units": epsilon_for_viewport(viewport),
    }
    return AggregationResult(
        regions=regions,
        values=estimate,
        method="bounded-raster-join",
        lower=lower,
        upper=upper,
        exact=False,
        stats=stats,
    )
