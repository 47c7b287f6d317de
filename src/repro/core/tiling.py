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
The out-of-core tiled scan (:mod:`repro.store.execute`) folds its tiles
through the same :func:`fold_tile_join`.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass

import numpy as np

from ..errors import QueryCancelled, QueryError
from ..geometry import BBox
from ..raster import Viewport, build_fragment_table, gather_reduce, gather_sum
from ..table import PointTable
from .aggregates import BOUNDABLE_AGGREGATES, COUNT, PartialAggregate
from .bounded import blend_canvases
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


def _accumulate_covered(part: PartialAggregate, fragments, canvases,
                        agg: str) -> None:
    """Fold one tile's covered-pixel join into the global partial."""
    n = fragments.num_polygons
    pix = fragments.covered_pixels
    polys = fragments.covered_polys
    if part.counts is not None:
        part.counts += gather_sum(canvases["count"], pix, polys, n)
    if part.sums is not None:
        part.sums += gather_sum(canvases["sum"], pix, polys, n)
    if part.mins is not None:
        np.minimum(part.mins,
                   gather_reduce(canvases["min"], pix, polys, n,
                                 np.minimum, np.inf), out=part.mins)
    if part.maxs is not None:
        np.maximum(part.maxs,
                   gather_reduce(canvases["max"], pix, polys, n,
                                 np.maximum, -np.inf), out=part.maxs)


def fold_tile_join(geometries, local_ids: list[int],
                   query: SpatialAggregation, tile_vp: Viewport,
                   canvases: dict, mass_canvas,
                   part: PartialAggregate, mass_in: np.ndarray,
                   mass_out: np.ndarray) -> None:
    """Fold one tile's polygon pass + gather join into global
    accumulators.

    ``canvases`` are the tile's blended point canvases and
    ``mass_canvas`` the per-pixel absolute-contribution mass (None for
    unboundable aggregates).  Shared by the in-memory tiled join and
    the out-of-core store scan: both produce identical tile canvases,
    so folding through one code path keeps their results bitwise-equal.
    """
    if not local_ids:
        return
    local_fragments = build_fragment_table(
        [geometries[gid] for gid in local_ids], tile_vp)
    # Remap the local polygon ids back to global region ids.
    remap = np.asarray(local_ids, dtype=np.int64)

    # Accumulate through a local partial, then scatter to global ids.
    local_part = PartialAggregate.empty(query.agg, len(local_ids))
    _accumulate_covered(local_part, local_fragments, canvases, query.agg)
    if part.counts is not None:
        part.counts[remap] += local_part.counts
    if part.sums is not None:
        part.sums[remap] += local_part.sums
    if part.mins is not None:
        np.minimum.at(part.mins, remap, local_part.mins)
    if part.maxs is not None:
        np.maximum.at(part.maxs, remap, local_part.maxs)

    if query.agg in BOUNDABLE_AGGREGATES:
        m_in = gather_sum(mass_canvas,
                          local_fragments.covered_boundary_pixels,
                          local_fragments.covered_boundary_polys,
                          len(local_ids))
        m_all = gather_sum(mass_canvas, local_fragments.boundary_pixels,
                           local_fragments.boundary_polys,
                           len(local_ids))
        mass_in[remap] += m_in
        mass_out[remap] += m_all - m_in


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


class _TileJoinState:
    """The shared prep + per-tile kernel behind both the one-shot and
    the progressive tiled joins: one global point pass (filter, project,
    stable-sort route to tiles), then :meth:`run_tile` folds one tile's
    render passes into caller-owned accumulators."""

    def __init__(self, table: PointTable, regions: RegionSet,
                 query: SpatialAggregation, resolution: int,
                 tile_pixels: int):
        self.regions = regions
        self.query = query
        self.resolution = resolution
        self.tile_pixels = tile_pixels
        self.viewport = Viewport.fit(regions.bbox, resolution)
        self.tiles = make_tiles(self.viewport, tile_pixels)

        # One global point pass: filter, project to global pixel coords,
        # then route points to tiles by integer division.
        mask = query.filter_mask(table)
        values = query.values_for(table)
        x = table.x[mask]
        y = table.y[mask]
        if values is not None:
            values = values[mask]
        ix, iy = self.viewport.pixel_of(x, y)
        valid = ((ix >= 0) & (ix < self.viewport.width)
                 & (iy >= 0) & (iy < self.viewport.height))
        self.ix = ix[valid]
        self.iy = iy[valid]
        self.values = values[valid] if values is not None else None

        tiles_per_row = -(-self.viewport.width // tile_pixels)  # ceil div
        tile_of_point = ((self.iy // tile_pixels) * tiles_per_row
                         + (self.ix // tile_pixels))
        self.order = np.argsort(tile_of_point, kind="stable")
        tile_sorted = tile_of_point[self.order]
        self.tile_offsets = np.searchsorted(
            tile_sorted, np.arange(len(self.tiles) + 1), side="left")

        self.geometries = list(regions.geometries)
        self.geom_boxes = [g.bbox for g in self.geometries]

    def empty_accumulators(self
                           ) -> tuple[PartialAggregate, np.ndarray, np.ndarray]:
        n = len(self.regions)
        return (PartialAggregate.empty(self.query.agg, n),
                np.zeros(n), np.zeros(n))

    def run_tile(self, tile_idx: int, part: PartialAggregate,
                 mass_in: np.ndarray, mass_out: np.ndarray) -> None:
        query = self.query
        ix, iy, values = self.ix, self.iy, self.values
        tile_vp, col0, row0 = self.tiles[tile_idx]
        # Regions overlapping this tile (ids must be preserved).
        local_ids = [gid for gid, gb in enumerate(self.geom_boxes)
                     if gb.intersects(tile_vp.bbox)]
        sel = self.order[
            self.tile_offsets[tile_idx]:self.tile_offsets[tile_idx + 1]]
        if not local_ids and len(sel) == 0:
            return

        local_pix = ((iy[sel] - row0) * tile_vp.width + (ix[sel] - col0))
        local_vals = values[sel] if values is not None else None
        canvases = blend_canvases(local_pix, local_vals, query.agg,
                                  tile_vp.num_pixels)

        if not local_ids:
            return
        mass = None
        if query.agg in BOUNDABLE_AGGREGATES:
            if query.agg == COUNT:
                mass = canvases["count"]
            else:
                from ..raster import scatter_sum

                mass = scatter_sum(local_pix, np.abs(local_vals),
                                   tile_vp.num_pixels)
        fold_tile_join(self.geometries, local_ids, query, tile_vp,
                       canvases, mass, part, mass_in, mass_out)

    def snapshot(self, part: PartialAggregate, mass_in: np.ndarray,
                 mass_out: np.ndarray
                 ) -> tuple[np.ndarray, np.ndarray | None, np.ndarray | None]:
        """Finalize the accumulators without consuming them.

        ``PartialAggregate.finalize`` returns fresh arrays, so the
        accumulators keep absorbing later tiles untouched.
        """
        estimate = part.finalize()
        lower = upper = None
        if self.query.agg in BOUNDABLE_AGGREGATES:
            lower = estimate - mass_in
            upper = estimate + mass_out
        return estimate, lower, upper


def tiled_bounded_raster_join(
    table: PointTable,
    regions: RegionSet,
    query: SpatialAggregation,
    resolution: int,
    tile_pixels: int = 1024,
    cancel=None,
) -> AggregationResult:
    """Bounded raster join over a virtual canvas of arbitrary size.

    The final snapshot of :func:`iter_tiled_partials`: the same tiles in
    the same order into one accumulator, so the in-memory tiled join has
    exactly one tile loop.  ``cancel`` (``threading.Event``-like) is
    honored between tiles.
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
            "epsilon_world_units": final.stats["epsilon_world_units"],
        },
    )


def iter_tiled_partials(
    table: PointTable,
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

    A set ``cancel`` token stops the generator between tiles with
    :class:`~repro.errors.QueryCancelled`.
    """
    if every < 1:
        raise QueryError("every must be >= 1")
    t_start = time.perf_counter()
    state = _TileJoinState(table, regions, query, resolution, tile_pixels)
    tiles_total = len(state.tiles)
    part, mass_in, mass_out = state.empty_accumulators()

    for tile_idx in range(tiles_total):
        if cancel is not None and cancel.is_set():
            raise QueryCancelled("progressive tiled join cancelled")
        state.run_tile(tile_idx, part, mass_in, mass_out)
        done = tile_idx + 1
        final = done == tiles_total
        if not final and done % every:
            continue
        values, lower, upper = state.snapshot(part, mass_in, mass_out)
        yield TilePartial(
            tile_index=done,
            tiles_total=tiles_total,
            values=values,
            lower=lower,
            upper=upper,
            final=final,
            stats={
                "resolution": resolution,
                "tile_pixels": tile_pixels,
                "progress": done / tiles_total,
                "epsilon_world_units": state.viewport.pixel_diag,
                "time_elapsed_s": time.perf_counter() - t_start,
            },
        )
