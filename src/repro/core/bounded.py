"""Bounded Raster Join.

The fast, approximate variant: both sides of the join are *drawn*.

1. **Point pass** — filtered points are scattered onto value canvases
   with additive (or min/max) blending, exactly like rendering points
   with blending enabled (:mod:`repro.core.pipeline`, shared by every
   join and every point source).
2. **Polygon pass** — each region's fragments (pixels whose center the
   region covers) are generated by scanline rasterization.
3. **Join** — each region folds the blended values of its FULL pixel
   runs and its covered (center-covered boundary) runs into its
   accumulator.

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
)
from .aggregates import (
    BOUNDABLE_AGGREGATES,
    COUNT,
    PartialAggregate,
    canvas_kinds,
)
from .bounds import boundary_mass, epsilon_for_viewport
from .pipeline import Window, as_source, fill
from .query import SpatialAggregation
from .regions import RegionSet
from .result import AggregationResult


def gather_partial(part: PartialAggregate, canvases: dict,
                   fragments: FragmentTable, covered: bool = True,
                   memo: dict | None = None) -> PartialAggregate:
    """The join step: fold every region's FULL runs — and with
    ``covered`` its covered runs (center-covered boundary pixels) — into
    the per-region partial ``part``.

    Each run family folds every canvas through the one plan the table
    keeps for it; every raster path (bounded, pyramid, tiled, store, the
    accurate join's interior) joins here, so they all fold the same
    values in the same order.  ``memo``: see
    :meth:`~repro.raster.IntervalSet.gather`.
    """
    n = fragments.num_polygons
    families = ("full", "covered") if covered else ("full",)

    def gather(kind, ufunc, fill):
        out = [fragments.intervals.gather(f, canvases[kind], n, ufunc, fill,
                                          memo, fragments.plans)
               for f in families]
        return out[0] if len(out) == 1 else ufunc(*out)

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


def join_with_bounds(fragments: FragmentTable, canvases: dict, agg: str
                     ) -> tuple:
    """``(estimate, lower, upper)``: the join step over all center-covered
    pixels (FULL and covered runs) — the pure raster estimate — and, for
    additive aggregates, its boundary-mass bounds (else None).  One memo
    spans both, so the covered runs gather once when the mass canvas is
    the estimate's (COUNT; SUM over values proven non-negative)."""
    memo: dict = {}
    estimate = gather_partial(
        PartialAggregate.empty(agg, fragments.num_polygons), canvases,
        fragments, memo=memo).finalize()
    if agg not in BOUNDABLE_AGGREGATES:
        return estimate, None, None
    mass_in, mass_out = boundary_mass(
        fragments, canvases["count" if agg == COUNT else "mass"], memo)
    return estimate, estimate - mass_in, estimate + mass_out


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
    with source.span() as sp:
        points = fill(source, query, Window(viewport),
                      canvas_kinds(query.agg))
    if source.narrowed is not None:
        sp.set(narrowed=source.narrowed)
    if source.sliced is not None:
        sp.set(sliced=source.sliced)
    canvases = points.canvases
    t_points = time.perf_counter() - t1

    t2 = time.perf_counter()
    with span("gather"):
        estimate, lower, upper = join_with_bounds(fragments, canvases,
                                                  query.agg)
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
