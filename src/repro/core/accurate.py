"""Accurate Raster Join.

The hybrid variant: raster evaluation wherever it is provably exact,
point-in-polygon tests only where it is not.

* A region's FULL runs (:class:`repro.raster.IntervalSet`) are pixels
  its boundary does not touch, entirely inside it, so the raster gather
  over them is exact — the run gather the bounded join uses.
* Points in some region's PARTIAL cells are the *candidates*.  Each
  PARTIAL run's candidates are one slice of the candidates sorted by
  pixel, and every (candidate, region) pair is decided by one batched
  **refine**: the crossing-number test of ``points_in_ring``, evaluated
  pair by pair over the region's ring edges with the same float
  expression, so every inside/outside bit equals
  ``geometry.contains_points``.  Points in FULL or EMPTY cells never
  reach it.

Matches fold per region with ``bincount`` (COUNT/SUM) and
``np.minimum.at``/``np.maximum.at`` (MIN/MAX): a NaN poisons its region,
the rule the canvases follow.
"""

from __future__ import annotations

import time

import numpy as np

from .. import kernels
from ..index import stable_argsort
from ..obs.trace import span
from ..raster import FragmentTable, Viewport, build_fragment_table
from ..raster.scanline import _stack_edges
from .aggregates import PartialAggregate, canvas_kinds
from .bounded import gather_partial
from .pipeline import Window, as_source, fill
from .query import SpatialAggregation
from .regions import RegionSet
from .result import AggregationResult

#: Most (pair, edge) elements the refine expands at once: inside
#: ``points_in_ring``'s 8M-element broadcast budget, with room for the
#: several arrays each element carries here.
REFINE_CHUNK = 1 << 20


def _candidate_pairs(fragments: FragmentTable, pix: np.ndarray
                     ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(candidates, pair candidates, pair regions)``.

    Candidates are the points (indices into ``pix``) whose pixel is
    PARTIAL for some region (a canvas mask of the PARTIAL runs).  Sorted
    by pixel, the candidates of one PARTIAL run are one slice, found by
    two ``searchsorted`` calls; a pair is a (PARTIAL run, candidate in
    it), grouped by region, then by run, pixel and point order.
    """
    partial = np.zeros(fragments.viewport.num_pixels, dtype=bool)
    partial[fragments.boundary_pixels] = True
    candidates = np.flatnonzero(partial[pix])
    cand_pix = pix[candidates]
    order = stable_argsort(cand_pix, fragments.viewport.num_pixels)
    cand_pix = cand_pix[order]
    iv = fragments.intervals
    lo = np.searchsorted(cand_pix, iv.partial_starts)
    counts = np.searchsorted(cand_pix,
                             iv.partial_starts + iv.partial_lengths) - lo
    pair_cand = order[kernels.active().expand_ranges(lo, counts)]
    return candidates, pair_cand, np.repeat(iv.runs("partial")[2], counts)


def _refine(geometries, xs: np.ndarray, ys: np.ndarray,
            owners: np.ndarray) -> tuple[np.ndarray, int]:
    """Exact containment of point ``(xs[k], ys[k])`` in geometry
    ``geometries[owners[k]]`` for every pair ``k`` at once, and the
    number of (pair, edge) tests made.

    Each pair expands over its geometry's ring edges.  An edge crosses
    when ``(y1 > ys) != (y2 > ys)`` and ``xs < xint`` — the operands and
    operation order of ``points_in_ring``, so every crossing bit is the
    same.  An odd crossing count per (pair, ring) is inside the ring; a
    part contains the point when it is inside the exterior and no hole,
    a geometry when any part does — ``Polygon.contains_points`` and
    ``MultiPolygon.contains_points``.
    """
    x1, y1, x2, y2, gid, ring, part, hole = _stack_edges(geometries, True)
    num_rings = len(hole)
    offsets = np.searchsorted(gid, np.arange(len(geometries) + 1))
    first = offsets[owners]
    counts = offsets[owners + 1] - first
    ends = np.cumsum(counts)
    expand = kernels.active().expand_ranges
    keys = [np.empty(0, dtype=np.int64)]
    lo = 0
    while lo < len(owners):
        budget = (ends[lo - 1] if lo else 0) + REFINE_CHUNK
        hi = max(lo + 1, int(np.searchsorted(ends, budget, side="right")))
        pair = np.repeat(np.arange(lo, hi), counts[lo:hi])
        edge = expand(first[lo:hi], counts[lo:hi])
        py = ys[pair]
        cond = (y1[edge] > py) != (y2[edge] > py)
        pair, edge, py = pair[cond], edge[cond], py[cond]
        ex1, ey1 = x1[edge], y1[edge]
        xint = ex1 + (py - ey1) * (x2[edge] - ex1) / (y2[edge] - ey1)
        hit = xs[pair] < xint
        # Ascending in (pair, edge), hence in (pair, ring).
        keys.append(pair[hit] * num_rings + ring[edge[hit]])
        lo = hi
    inside = np.zeros(len(owners), dtype=bool)
    keys = np.concatenate(keys)
    if len(keys):
        head = np.flatnonzero(np.diff(keys, prepend=-1))
        odd = np.diff(np.append(head, len(keys))) % 2 == 1
        pairs, rings = np.divmod(keys[head[odd]], num_rings)
        # Per (pair, part): bit 1 inside the exterior, bit 2 inside a
        # hole.  A part's rings are consecutive, so its keys are too.
        part_keys = pairs * num_rings + part[rings]
        head = np.flatnonzero(np.diff(part_keys, prepend=-1))
        flags = np.bitwise_or.reduceat(np.where(hole[rings], 2, 1), head)
        inside[pairs[head[flags == 1]]] = True
    return inside, int(counts.sum())


def accurate_raster_join(
    table,
    regions: RegionSet,
    query: SpatialAggregation,
    viewport: Viewport,
    fragments: FragmentTable | None = None,
) -> AggregationResult:
    """Run the accurate (hybrid raster + exact) join.

    ``table`` is a one-chunk point source (an in-memory table): the
    refine needs the candidates' coordinates resident.
    """
    source = as_source(table)
    t0 = time.perf_counter()
    if fragments is None:
        with span("fragments"):
            fragments = build_fragment_table(list(regions.geometries),
                                             viewport)
    intervals = fragments.intervals
    t_polygons = time.perf_counter() - t0

    t1 = time.perf_counter()
    with source.span():
        points = fill(source, query, Window(viewport),
                      canvas_kinds(query.agg, with_mass=False), keep=True)
    (chunk, rows, pix, values), = points.chunks
    t_points = time.perf_counter() - t1

    t2 = time.perf_counter()
    n = fragments.num_polygons
    with span("gather"):
        part = gather_partial(PartialAggregate.empty(query.agg, n),
                              points.canvases, fragments, covered=False)

    with span("refine") as sp:
        candidates, pair_cand, pair_region = _candidate_pairs(fragments, pix)
        cand_rows = candidates if rows is None else rows[candidates]
        inside, edges_tested = _refine(
            list(regions.geometries), chunk.x[cand_rows][pair_cand],
            chunk.y[cand_rows][pair_cand], pair_region)
        matched = pair_region[inside]
        if part.counts is not None:
            part.counts += np.bincount(matched, minlength=n)
        if values is not None:
            matched_values = values[candidates[pair_cand[inside]]]
            if part.sums is not None:
                part.sums += np.bincount(matched, weights=matched_values,
                                         minlength=n)
            with np.errstate(invalid="ignore"):  # NaN poisons its region
                if part.mins is not None:
                    np.minimum.at(part.mins, matched, matched_values)
                if part.maxs is not None:
                    np.maximum.at(part.maxs, matched, matched_values)
    refine = {"candidates": len(candidates), "pairs": len(pair_cand),
              "edges_tested": edges_tested}
    sp.set(**refine)
    result_values = part.finalize()
    t_join = time.perf_counter() - t2

    stats = {
        "points_total": len(chunk),
        "points_after_filter": source.filtered_count(query),
        "points_in_viewport": len(pix),
        "boundary_points_tested": len(pair_cand),
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
            # One test per (candidate, region) pair.
            "pip_points_tested": len(pair_cand),
            # In-viewport points that are no candidate: credited (or
            # not) by the run gather alone.
            "pip_points_skipped": len(pix) - len(candidates),
            **refine,
        },
    }
    return AggregationResult(
        regions=regions,
        values=result_values,
        method="accurate-raster-join",
        exact=True,
        stats=stats,
    )
