"""Tiled execution for canvases beyond the maximum texture size.

GPUs cap render-target sizes (the paper tiles its canvas when a small
error bound demands more pixels than one texture holds); the software
pipeline has an analogous memory cap.  :func:`tiled_bounded_raster_join`
splits the global pixel grid into tiles, runs the render passes per
tile, and merges the per-region partials — pixels belong to exactly one
tile, so additive partials merge by summation and min/max by
combination, and the numeric error bounds remain hard.

Because every tile contributes an independent additive partial, the
same machinery also supports *progressive* execution:
:func:`iter_tiled_partials` yields a :class:`TilePartial` snapshot
after each tile (or every ``every`` tiles) — estimate plus hard bounds
over the pixels processed so far — and the serving layer streams those
snapshots to clients as they arrive.  :func:`tiled_bounded_raster_join`
*is* the final snapshot, so there is one tile loop, it runs in this
process, and a streamed answer converges bitwise to the one-shot one.
Its points come from a point source (:mod:`repro.core.pipeline`), so
the out-of-core tiled scan is this same loop over a store's partitions.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass

import numpy as np

from ..errors import QueryCancelled, QueryError
from ..geometry import BBox
from ..raster import Viewport, build_fragment_table
from .aggregates import (
    BOUNDABLE_AGGREGATES,
    COUNT,
    PartialAggregate,
    canvas_kinds,
)
from .bounded import gather_partial
from .bounds import boundary_mass
from .pipeline import Window, as_source, fill
from .query import SpatialAggregation
from .regions import RegionSet
from .result import AggregationResult


def make_tiles(viewport: Viewport, tile_pixels: int
               ) -> list[tuple[Viewport, int, int]]:
    """Split a global viewport into aligned tiles.

    Returns (tile viewport, col0, row0) triples; tile world windows are
    derived from exact pixel ranges so the union of tiles reproduces the
    global pixel grid bit-for-bit.
    """
    if tile_pixels < 1:
        raise QueryError("tile_pixels must be >= 1")
    tiles = []
    pw = viewport.pixel_width
    ph = viewport.pixel_height
    for row0 in range(0, viewport.height, tile_pixels):
        rows = min(tile_pixels, viewport.height - row0)
        for col0 in range(0, viewport.width, tile_pixels):
            cols = min(tile_pixels, viewport.width - col0)
            bbox = BBox(
                viewport.bbox.xmin + col0 * pw,
                viewport.bbox.ymin + row0 * ph,
                viewport.bbox.xmin + (col0 + cols) * pw,
                viewport.bbox.ymin + (row0 + rows) * ph,
            )
            tiles.append((Viewport(bbox, cols, rows), col0, row0))
    return tiles


def grid_block_tiles(viewport) -> list[tuple[int, int, tuple, tuple]]:
    """Pyramid-aware tiling: the canvas-grid blocks under a viewport.

    Where :func:`make_tiles` cuts a viewport into viewport-relative
    tiles, this enumerates the *world-anchored* blocks of a
    :class:`~repro.core.pyramid.GridViewport`'s canvas grid — the units
    the block cache stores, so a panned viewport lands on the same block
    identities and only its margin is new.  Duck-typed on the
    ``grid``/``level``/``col0``/``row0`` fields (this module must not
    import :mod:`repro.core.pyramid`, which imports it).

    Returns ``(bx, by, view_slices, block_slices)`` per overlapping
    block: ``view_slices`` indexes the 2-D viewport canvas,
    ``block_slices`` the block's full ``(block, block)`` plane, and the
    two select the same pixels.  Blocks partition the pixel lattice, so
    pasting every pair covers each viewport pixel exactly once.
    """
    size = viewport.grid.block
    c0, r0 = viewport.col0, viewport.row0
    c1, r1 = c0 + viewport.width, r0 + viewport.height
    tiles = []
    for by in range((r0 // size), ((r1 - 1) // size) + 1):
        gy = by * size
        rlo, rhi = max(r0, gy), min(r1, gy + size)
        for bx in range((c0 // size), ((c1 - 1) // size) + 1):
            gx = bx * size
            clo, chi = max(c0, gx), min(c1, gx + size)
            tiles.append((
                bx, by,
                (slice(rlo - r0, rhi - r0), slice(clo - c0, chi - c0)),
                (slice(rlo - gy, rhi - gy), slice(clo - gx, chi - gx)),
            ))
    return tiles


def fold_tile_join(geometries, local_ids: list[int],
                   query: SpatialAggregation, tile_vp: Viewport,
                   canvases: dict, mass_canvas,
                   part: PartialAggregate, mass_in: np.ndarray,
                   mass_out: np.ndarray) -> None:
    """Fold one tile's polygon pass + gather join into global
    accumulators.

    ``canvases`` are the tile's blended point canvases and
    ``mass_canvas`` the per-pixel absolute-contribution mass (None for
    unboundable aggregates).
    """
    if not local_ids:
        return
    local_fragments = build_fragment_table(
        [geometries[gid] for gid in local_ids], tile_vp)
    # Remap the local polygon ids back to global region ids.
    remap = np.asarray(local_ids, dtype=np.int64)

    # Accumulate through a local partial, then scatter to global ids.
    local_part = gather_partial(
        PartialAggregate.empty(query.agg, len(local_ids)), canvases,
        local_fragments)
    if part.counts is not None:
        part.counts[remap] += local_part.counts
    if part.sums is not None:
        part.sums[remap] += local_part.sums
    # ``local_ids`` are distinct, so fancy-indexed updates are exact.
    if part.mins is not None:
        part.mins[remap] = np.minimum(part.mins[remap], local_part.mins)
    if part.maxs is not None:
        part.maxs[remap] = np.maximum(part.maxs[remap], local_part.maxs)

    if query.agg in BOUNDABLE_AGGREGATES:
        m_in, m_out = boundary_mass(local_fragments, mass_canvas)
        mass_in[remap] += m_in
        mass_out[remap] += m_out


@dataclass
class TilePartial:
    """One progressive snapshot of a tiled join in flight.

    ``values``/``lower``/``upper`` cover only the tiles processed so
    far — the hard-bound contract holds per snapshot: the true answer
    restricted to those pixels lies within [lower, upper].  The last
    snapshot (``final=True``) equals the full tiled join bitwise.
    """

    tile_index: int        #: 1-based count of tiles folded in so far.
    tiles_total: int
    values: np.ndarray
    lower: np.ndarray | None
    upper: np.ndarray | None
    final: bool
    stats: dict


def tiled_bounded_raster_join(
    table,
    regions: RegionSet,
    query: SpatialAggregation,
    resolution: int,
    tile_pixels: int = 1024,
    cancel=None,
) -> AggregationResult:
    """Bounded raster join over a virtual canvas of arbitrary size.

    The final snapshot of :func:`iter_tiled_partials`: the same tiles in
    the same order into one accumulator, so there is exactly one tile
    loop.  ``cancel`` (``threading.Event``-like) is honored between
    tiles and before each point chunk.
    """
    t_start = time.perf_counter()
    *_, final = iter_tiled_partials(table, regions, query, resolution,
                                    tile_pixels, every=sys.maxsize,
                                    cancel=cancel)
    return AggregationResult(
        regions=regions,
        values=final.values,
        method="tiled-bounded-raster-join",
        lower=final.lower,
        upper=final.upper,
        exact=False,
        stats={
            "tiles": final.tiles_total,
            "resolution": resolution,
            "tile_pixels": tile_pixels,
            "time_total_s": time.perf_counter() - t_start,
            **{key: final.stats[key] for key in (
                "epsilon_world_units", "points_total",
                "points_after_filter", "points_in_viewport")},
        },
    )


def iter_tiled_partials(
    table,
    regions: RegionSet,
    query: SpatialAggregation,
    resolution: int,
    tile_pixels: int = 1024,
    every: int = 1,
    cancel=None,
):
    """Progressive tiled join: yield a :class:`TilePartial` snapshot
    every ``every`` tiles, always ending with a ``final=True`` snapshot
    — which is what :func:`tiled_bounded_raster_join` returns.  Each
    snapshot's [lower, upper] interval is a hard bound on the true
    answer *restricted to the pixels folded in so far* — the serving
    layer forwards them as bounded-error progress metadata.

    ``table`` is a point source; each tile with regions on it runs one
    point pass into its own canvases (the pipeline's tile sink), which a
    bare table narrows to the tile through a grid index.  A set
    ``cancel`` token stops the generator between tiles, or before a
    source's next chunk, with :class:`~repro.errors.QueryCancelled`.
    """
    if every < 1:
        raise QueryError("every must be >= 1")
    t_start = time.perf_counter()
    source = as_source(table, cancel=cancel)
    agg = query.agg
    viewport = Viewport.fit(regions.bbox, resolution)
    tiles = make_tiles(viewport, tile_pixels)
    kinds = canvas_kinds(agg)
    geometries = list(regions.geometries)
    geom_boxes = [g.bbox for g in geometries]
    part = PartialAggregate.empty(agg, len(regions))
    mass_in = np.zeros(len(regions))
    mass_out = np.zeros(len(regions))
    in_viewport = 0

    for done, tile in enumerate(tiles, start=1):
        if cancel is not None and cancel.is_set():
            raise QueryCancelled("progressive tiled join cancelled")
        tile_vp = tile[0]
        local_ids = [gid for gid, gb in enumerate(geom_boxes)
                     if gb.intersects(tile_vp.bbox)]
        if local_ids:
            points = fill(source, query, Window(viewport, tile), kinds)
            in_viewport += points.points
            canvases = points.canvases
            mass = None
            if agg in BOUNDABLE_AGGREGATES:
                mass = canvases["count" if agg == COUNT else "mass"]
            fold_tile_join(geometries, local_ids, query, tile_vp,
                           canvases, mass, part, mass_in, mass_out)
        final = done == len(tiles)
        if not final and done % every:
            continue
        # ``finalize`` returns fresh arrays, so the accumulators keep
        # absorbing later tiles untouched.
        values = part.finalize()
        lower = upper = None
        if agg in BOUNDABLE_AGGREGATES:
            lower = values - mass_in
            upper = values + mass_out
        yield TilePartial(
            tile_index=done,
            tiles_total=len(tiles),
            values=values,
            lower=lower,
            upper=upper,
            final=final,
            stats={
                "resolution": resolution,
                "tile_pixels": tile_pixels,
                "progress": done / len(tiles),
                "epsilon_world_units": viewport.pixel_diag,
                "points_total": len(source.table),
                "points_after_filter": source.filtered_count(query),
                "points_in_viewport": in_viewport,
                "time_elapsed_s": time.perf_counter() - t_start,
            },
        )
