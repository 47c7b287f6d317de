"""Bounded Raster Join.

The fast, approximate variant: both sides of the join are *drawn*.

1. **Point pass** — filtered points are scattered onto value canvases
   with additive (or min/max) blending, exactly like rendering points
   with blending enabled.
2. **Polygon pass** — each region's fragments (pixels whose center the
   region covers) are generated by scanline rasterization.
3. **Join** — each fragment pulls its pixel's blended value into its
   region's accumulator.

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
    gather_sum,
    scatter_count,
    scatter_max,
    scatter_min,
    scatter_sum,
)
from ..table import PointTable
from .aggregates import AVG, BOUNDABLE_AGGREGATES, COUNT, MAX, MIN, SUM
from .bounds import boundary_mass_bounds, epsilon_for_viewport
from .query import SpatialAggregation
from .regions import RegionSet
from .result import AggregationResult


def rasterize_points(table: PointTable, query: SpatialAggregation,
                     viewport: Viewport
                     ) -> tuple[np.ndarray, np.ndarray | None, dict]:
    """The point render pass: (pixel ids, values, stats) after filtering.

    Returns the flat pixel id of every filtered in-viewport point, the
    matching value-column entries (None for COUNT), and pass statistics.
    """
    # Filter mask and viewport-validity mask compose into one index, so
    # x/y/values are each gathered once instead of twice on the hot path.
    keep = np.flatnonzero(query.filter_mask(table))
    points_after_filter = len(keep)
    pixel_ids, valid = viewport.pixel_ids_of(table.x[keep], table.y[keep])
    if not valid.all():
        keep = keep[valid]
        pixel_ids = pixel_ids[valid]
    values = query.values_for(table)
    if values is not None:
        values = values[keep]
    stats = {
        "points_total": len(table),
        "points_after_filter": points_after_filter,
        "points_in_viewport": int(len(pixel_ids)),
    }
    return pixel_ids, values, stats


def blend_canvases(pixel_ids: np.ndarray, values: np.ndarray | None,
                   agg: str, num_pixels: int) -> dict[str, np.ndarray]:
    """Blend point contributions into the canvases ``agg`` needs."""
    canvases: dict[str, np.ndarray] = {}
    if agg in (COUNT, AVG):
        canvases["count"] = scatter_count(pixel_ids, num_pixels)
    if agg in (SUM, AVG):
        canvases["sum"] = scatter_sum(pixel_ids, values, num_pixels)
    if agg == MIN:
        canvases["min"] = scatter_min(pixel_ids, values, num_pixels)
    if agg == MAX:
        canvases["max"] = scatter_max(pixel_ids, values, num_pixels)
    return canvases


def _join_covered(fragments: FragmentTable, canvases: dict, agg: str
                  ) -> np.ndarray:
    """Join step over all center-covered pixels (interior + covered
    boundary) — the pure raster estimate."""
    n = fragments.num_polygons
    pix = fragments.covered_pixels
    polys = fragments.covered_polys
    if agg == COUNT:
        return gather_sum(canvases["count"], pix, polys, n)
    if agg == SUM:
        return gather_sum(canvases["sum"], pix, polys, n)
    if agg == AVG:
        sums = gather_sum(canvases["sum"], pix, polys, n)
        counts = gather_sum(canvases["count"], pix, polys, n)
        with np.errstate(divide="ignore", invalid="ignore"):
            out = sums / counts
        out[counts == 0] = np.nan
        return out
    if agg == MIN:
        out = gather_reduce(canvases["min"], pix, polys, n, np.minimum, np.inf)
        out[~np.isfinite(out)] = np.nan
        return out
    out = gather_reduce(canvases["max"], pix, polys, n, np.maximum, -np.inf)
    out[~np.isfinite(out)] = np.nan
    return out


def bounded_raster_join(
    table: PointTable,
    regions: RegionSet,
    query: SpatialAggregation,
    viewport: Viewport,
    fragments: FragmentTable | None = None,
) -> AggregationResult:
    """Run the bounded raster join at the given canvas resolution.

    ``fragments`` may be passed in to reuse a cached polygon render pass
    (the executor does this when only filters change between queries).
    """
    t0 = time.perf_counter()
    if fragments is None:
        with span("fragments"):
            fragments = build_fragment_table(list(regions.geometries),
                                             viewport)
    t_polygons = time.perf_counter() - t0

    t1 = time.perf_counter()
    with span("scatter"):
        pixel_ids, values, stats = rasterize_points(table, query, viewport)
        canvases = blend_canvases(pixel_ids, values, query.agg,
                                  viewport.num_pixels)
    t_points = time.perf_counter() - t1

    t2 = time.perf_counter()
    with span("gather"):
        estimate = _join_covered(fragments, canvases, query.agg)

        lower = upper = None
        if query.agg in BOUNDABLE_AGGREGATES:
            if query.agg == COUNT:
                mass = canvases["count"]
            elif len(values) == 0 or values.min() >= 0:
                # Non-negative values: |v| == v, so the sum canvas
                # already scattered this pass *is* the boundary mass —
                # skip the second scatter.
                mass = canvases["sum"]
            else:
                mass = scatter_sum(pixel_ids, np.abs(values),
                                   viewport.num_pixels)
            lower, upper = boundary_mass_bounds(fragments, estimate, mass)
    t_join = time.perf_counter() - t2

    stats.update({
        "time_polygon_pass_s": t_polygons,
        "time_point_pass_s": t_points,
        "time_join_s": t_join,
        "interior_fragments": fragments.num_interior_fragments,
        "boundary_fragments": fragments.num_boundary_fragments,
        "canvas_pixels": viewport.num_pixels,
        "epsilon_world_units": epsilon_for_viewport(viewport),
    })
    return AggregationResult(
        regions=regions,
        values=estimate,
        method="bounded-raster-join",
        lower=lower,
        upper=upper,
        exact=False,
        stats=stats,
    )
