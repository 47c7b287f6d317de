"""Accurate Raster Join.

The hybrid variant: raster evaluation wherever it is provably exact,
point-in-polygon tests only where it is not.

* Pixels *not* touched by a region's boundary are entirely inside or
  outside it, so the raster pass over interior fragments is exact.
* Points landing in a region's (conservatively detected) boundary
  pixels are fetched through per-pixel buckets and tested exactly
  against that region's geometry.

Since PR 8 the exact pass is driven by the per-polygon **interval
classification** (:class:`repro.raster.IntervalSet`): each polygon's
raster cells are FULL (interior — credited entirely by the raster
gather), PARTIAL (boundary — candidates for exact tests) or EMPTY.
Candidate points are fetched per PARTIAL *run* — one contiguous CSR
slice per run of consecutive cells instead of one per cell — and
points in FULL cells never reach the PIP code at all.  Candidate
order is identical to the per-pixel fetch, so results are
bitwise-identical to :func:`legacy_accurate_raster_join` (kept below
for the parity suite and the ablation benchmark).
"""

from __future__ import annotations

import time

import numpy as np

from ..raster import FragmentTable, PixelBuckets, Viewport, build_fragment_table
from .aggregates import PartialAggregate, accumulate_exact, canvas_kinds
from .bounded import gather_partial
from .pipeline import Window, as_source, fill
from .query import SpatialAggregation
from .regions import RegionSet
from .result import AggregationResult

# Cell classes of the interval classification, as canvas codes
# (defined with the fragment tables; re-exported here for the join).
from ..raster.fragments import CELL_EMPTY, CELL_FULL, CELL_PARTIAL  # noqa: E402,F401


def _boundary_pixels_by_polygon(fragments: FragmentTable
                                ) -> tuple[np.ndarray, np.ndarray]:
    """CSR (offsets, pixel ids) of boundary pixels grouped by polygon."""
    order = np.argsort(fragments.boundary_polys, kind="stable")
    pix_sorted = fragments.boundary_pixels[order]
    polys_sorted = fragments.boundary_polys[order]
    offsets = np.searchsorted(
        polys_sorted, np.arange(fragments.num_polygons + 1), side="left")
    return offsets, pix_sorted


def _cell_classes(fragments: FragmentTable) -> np.ndarray:
    """Per-pixel cell class canvas, cached on the fragment table."""
    return fragments.cell_classes


def _point_pass(table, query: SpatialAggregation, viewport: Viewport):
    """The pipeline's canvas pass, keeping the folded points for the
    exact pass — which needs them resident, so the source must be one
    chunk: ``(canvases, x, y, values, pixel ids, point counters)``."""
    source = as_source(table)
    points = fill(source, query, Window(viewport),
                  canvas_kinds(query.agg, with_mass=False), keep=True)
    (chunk, rows, pix, values), = points.chunks
    x, y = (chunk.x, chunk.y) if rows is None else (chunk.x[rows],
                                                     chunk.y[rows])
    counters = {"points_total": len(chunk),
                "points_after_filter": source.filtered_count(query),
                "points_in_viewport": len(pix)}
    return points.canvases, x, y, values, pix, counters


def accurate_raster_join(
    table,
    regions: RegionSet,
    query: SpatialAggregation,
    viewport: Viewport,
    fragments: FragmentTable | None = None,
) -> AggregationResult:
    """Run the accurate (hybrid raster + exact) join."""
    t0 = time.perf_counter()
    if fragments is None:
        fragments = build_fragment_table(list(regions.geometries), viewport)
    intervals = fragments.intervals
    t_polygons = time.perf_counter() - t0

    # Point pass: canvases for the raster part, buckets for the exact
    # part.  The buckets index into the filtered point arrays.
    t1 = time.perf_counter()
    canvases, x, y, values, pixel_ids, counters = _point_pass(
        table, query, viewport)
    # Classify every point by its cell: only points in some polygon's
    # PARTIAL cell can need exact tests, so only those are bucketed —
    # the sort behind the buckets stays proportional to the boundary
    # population, not |P|.  Points in FULL cells are already fully
    # credited by the raster gather and skip PIP entirely.
    classes = _cell_classes(fragments)
    point_classes = classes[pixel_ids]
    candidate_ids = np.flatnonzero(point_classes == CELL_PARTIAL)
    pip_points_skipped = int((point_classes == CELL_FULL).sum())
    # Buckets hold candidate-local ids: every downstream array (the
    # sort, the coordinate pairs, the bucket CSR) stays proportional to
    # the PARTIAL population, never |P|.
    buckets = PixelBuckets(pixel_ids[candidate_ids], viewport.num_pixels)
    t_points = time.perf_counter() - t1

    # Raster contribution: interior (FULL) fragments only.
    t2 = time.perf_counter()
    n = fragments.num_polygons
    part = gather_partial(PartialAggregate.empty(query.agg, n), canvases,
                          fragments.interior_pixels,
                          fragments.interior_polys, n)

    # Exact contribution: the candidates of every region's PARTIAL
    # interval runs are fetched in one batched expansion (one CSR slice
    # per run), then tested per region against the true geometry.
    intervals_po = intervals.partial_offsets
    cand_all, cand_off = buckets.points_in_grouped_runs(
        intervals.partial_starts, intervals.partial_lengths, intervals_po)
    xy_cand = np.column_stack([x[candidate_ids], y[candidate_ids]])
    boundary_points_tested = 0
    for gid in range(len(regions)):
        cand = cand_all[cand_off[gid]:cand_off[gid + 1]]
        if len(cand) == 0:
            continue
        boundary_points_tested += len(cand)
        inside = regions[gid].contains_points(xy_cand[cand])
        if not inside.any():
            continue
        matched = candidate_ids[cand[inside]]
        accumulate_exact(
            part, gid,
            values[matched] if values is not None else None,
            int(len(matched)))
    result_values = part.finalize()
    t_join = time.perf_counter() - t2

    stats = {
        **counters,
        "boundary_points_tested": boundary_points_tested,
        "time_polygon_pass_s": t_polygons,
        "time_point_pass_s": t_points,
        "time_join_s": t_join,
        "interior_fragments": fragments.num_interior_fragments,
        "boundary_fragments": fragments.num_boundary_fragments,
        "canvas_pixels": viewport.num_pixels,
        "accurate": {
            "full_pixels": intervals.full_pixels,
            "partial_pixels": intervals.partial_pixels,
            "full_runs": intervals.num_full_runs,
            "partial_runs": intervals.num_partial_runs,
            "pip_points_tested": boundary_points_tested,
            "pip_points_skipped": pip_points_skipped,
        },
    }
    return AggregationResult(
        regions=regions,
        values=result_values,
        method="accurate-raster-join",
        exact=True,
        stats=stats,
    )


def legacy_accurate_raster_join(
    table,
    regions: RegionSet,
    query: SpatialAggregation,
    viewport: Viewport,
    fragments: FragmentTable | None = None,
) -> AggregationResult:
    """The pre-interval accurate join: per-pixel candidate fetches.

    Kept as the parity reference — same fragment table in, bitwise-same
    result out — and for the ablation column of the accuracy benchmark.
    """
    t0 = time.perf_counter()
    if fragments is None:
        fragments = build_fragment_table(list(regions.geometries), viewport)
    t_polygons = time.perf_counter() - t0

    t1 = time.perf_counter()
    canvases, x, y, values, pixel_ids, counters = _point_pass(
        table, query, viewport)
    is_boundary = np.zeros(viewport.num_pixels, dtype=bool)
    is_boundary[fragments.boundary_pixels] = True
    candidate_ids = np.flatnonzero(is_boundary[pixel_ids])
    buckets = PixelBuckets(pixel_ids[candidate_ids], viewport.num_pixels,
                           point_ids=candidate_ids)
    t_points = time.perf_counter() - t1

    t2 = time.perf_counter()
    n = fragments.num_polygons
    part = gather_partial(PartialAggregate.empty(query.agg, n), canvases,
                          fragments.interior_pixels,
                          fragments.interior_polys, n)

    offsets, bpix_sorted = _boundary_pixels_by_polygon(fragments)
    xy = np.column_stack([x, y])
    boundary_points_tested = 0
    for gid in range(len(regions)):
        bpix = bpix_sorted[offsets[gid]:offsets[gid + 1]]
        if len(bpix) == 0:
            continue
        cand = buckets.points_in_pixels(bpix)
        if len(cand) == 0:
            continue
        boundary_points_tested += len(cand)
        inside = regions[gid].contains_points(xy[cand])
        if not inside.any():
            continue
        matched = cand[inside]
        accumulate_exact(
            part, gid,
            values[matched] if values is not None else None,
            int(len(matched)))
    result_values = part.finalize()
    t_join = time.perf_counter() - t2

    stats = {
        **counters,
        "boundary_points_tested": boundary_points_tested,
        "time_polygon_pass_s": t_polygons,
        "time_point_pass_s": t_points,
        "time_join_s": t_join,
        "interior_fragments": fragments.num_interior_fragments,
        "boundary_fragments": fragments.num_boundary_fragments,
        "canvas_pixels": viewport.num_pixels,
    }
    return AggregationResult(
        regions=regions,
        values=result_values,
        method="accurate-raster-join-legacy",
        exact=True,
        stats=stats,
    )
