"""Hierarchical canvas pyramid: block-keyed partial-aggregate reuse.

The GeoBlocks observation: interactive gestures overlap.  A pan shares
most of its canvas with the previous frame, a zoom-out is exactly a 2x
reduction of what was already scattered, and a nudged polygon set needs
no point pass at all.  This module refactors canvas production around
that reuse:

* :class:`CanvasGrid` — a world-anchored pixel lattice.  Every level-0
  pixel, every coarser pyramid level, and every ``block x block`` cache
  block is defined by integer coordinates on this one grid, so two
  viewports that overlap in the world share block *identities*, not
  just values.
* :class:`GridViewport` — a :class:`~repro.raster.Viewport` pinned to a
  grid: its world->pixel transform goes through the grid anchor and an
  integer shift (``base_col >> level``), so the direct scatter path and
  the block-assembly path classify every point identically — the root
  of the bitwise-parity guarantee.  ``pan``/``zoom`` return grid-
  snapped viewports, so adjacent gestures produce value-equal keys.
* :func:`assemble_canvases` — produce a query's canvases by pasting
  cached blocks, deriving coarse blocks from cached finer ones (a 2x2
  reduction, see :mod:`repro.raster.pyramid`), and scattering only the
  uncovered delta — every missing block of a frame in *one* point pass
  into :mod:`repro.core.pipeline`'s block sink, the canvas of the
  blocks' bounding rectangle.  So a cold frame costs what the direct
  join costs (an in-memory table scans in row order when the blocks
  hold a quarter of it or more), and a store streams each partition
  once per cold frame instead of once per block.  Blocks are cached
  *full* (never clipped to the viewport) under the unified cache's
  byte budget, so an edge block scattered for one frame serves
  complete for the next pan.
* :func:`grid_bounded_join` — blocks are admitted on a viewport move:
  a first sighting runs one direct point pass and installs nothing.

Block keys embed ``fingerprint(table)``.  Tables and stores are
immutable and a derived table gets a fresh token, so a cached block can
never go stale: a coarse block that outlives the eviction of its
level-0 sources still holds exactly what a fresh scatter would, and a
different table can never key to it.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from ..geometry import BBox
from ..obs.trace import NULL_SPAN, current_span, span
from ..raster import FragmentTable, Viewport
from ..raster.pyramid import PYRAMID_OPS, reduce2x2
from ..table import PointTable
from .aggregates import canvas_kinds
from .bounded import bounded_raster_join, join_with_bounds
from .bounds import epsilon_for_viewport
from .cache import fingerprint
from .pipeline import FILLS, Blocks, TableSource, as_source, fill
from .query import SpatialAggregation
from .regions import RegionSet
from .result import AggregationResult
from .tiling import grid_block_tiles

#: Side length of one cache block, in pixels (any level).
DEFAULT_BLOCK = 128

#: Kinds whose 2x2 reduction is bitwise-exact for *any* value column:
#: COUNT canvases hold small integers (exact float addition) and
#: min/max propagation is order-free.  ``sum``/``mass`` join this set
#: only when the source proves the value column integer-valued (see
#: :meth:`~repro.core.pipeline.TableSource.integral`); otherwise a
#: derived coarse sum could differ from a fresh scatter by
#: reassociation round-off, breaking the bitwise contract.
_ALWAYS_DERIVABLE = frozenset({"count", "min", "max"})


@dataclass(frozen=True)
class CanvasGrid:
    """A world-anchored pixel lattice shared by a family of viewports.

    ``(x0, y0)`` is the world position of base pixel ``(0, 0)``'s
    corner; ``pw``/``ph`` are the base (level-0) pixel extents.  The
    grid is a pure value — two grids with equal fields are the same
    grid, hash-equal in every cache key.
    """

    x0: float
    y0: float
    pw: float
    ph: float
    block: int = DEFAULT_BLOCK

    @classmethod
    def from_viewport(cls, viewport: Viewport,
                      block: int = DEFAULT_BLOCK) -> "CanvasGrid":
        """Anchor a grid at a planned viewport's origin and pixel size."""
        return cls(viewport.bbox.xmin, viewport.bbox.ymin,
                   viewport.pixel_width, viewport.pixel_height, int(block))

    def level_pixel(self, x, y, level: int) -> tuple[np.ndarray, np.ndarray]:
        """Absolute level-``level`` pixel (col, row) of world points.

        The base-pixel index ``floor((x - x0) / pw)`` shifted right by
        ``level`` (an arithmetic shift is exact floor division): the one
        transform both :meth:`GridViewport.pixel_of` and the pipeline's
        block sink use, so a point lands in the same absolute pixel
        whichever path scatters it.
        """
        x = np.asarray(x, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        ix = np.floor((x - self.x0) / self.pw).astype(np.int64)
        iy = np.floor((y - self.y0) / self.ph).astype(np.int64)
        return ix >> level, iy >> level

    def block_bbox(self, level: int, bx: int, by: int) -> BBox:
        """World bbox of block ``(bx, by)`` at ``level``, padded by one
        base pixel: a superset of every point :meth:`level_pixel` maps
        into the block, safe against the float rounding at its edges."""
        extent = self.block << level
        c0 = bx * extent
        r0 = by * extent
        return BBox(self.x0 + (c0 - 1) * self.pw,
                    self.y0 + (r0 - 1) * self.ph,
                    self.x0 + (c0 + extent + 1) * self.pw,
                    self.y0 + (r0 + extent + 1) * self.ph)

    def viewport(self, level: int, col0: int, row0: int,
                 width: int, height: int) -> "GridViewport":
        """The viewport spanning level-``level`` pixel columns
        ``[col0, col0+width)`` and rows ``[row0, row0+height)``."""
        scale = float(1 << level)
        pw = self.pw * scale
        ph = self.ph * scale
        bbox = BBox(self.x0 + col0 * pw, self.y0 + row0 * ph,
                    self.x0 + (col0 + width) * pw,
                    self.y0 + (row0 + height) * ph)
        return GridViewport(bbox=bbox, width=int(width), height=int(height),
                            grid=self, level=int(level),
                            col0=int(col0), row0=int(row0))


@dataclass(frozen=True)
class GridViewport(Viewport):
    """A viewport snapped to a :class:`CanvasGrid`.

    The world->pixel transform is overridden to go through the grid's
    :meth:`~CanvasGrid.level_pixel`, offset by ``(col0, row0)``, so the
    direct scatter and the block scatter classify points with the
    *same* float operations — which is what makes assembled and direct
    answers bitwise-identical.

    Equality/hash come from the dataclass fields, so two gestures that
    land on the same ``(grid, level, col0, row0)`` produce value-equal
    viewports and therefore identical cache keys — no float round-trip
    can split them.
    """

    grid: CanvasGrid
    level: int
    col0: int
    row0: int

    def pixel_of(self, x, y) -> tuple[np.ndarray, np.ndarray]:
        ix, iy = self.grid.level_pixel(x, y, self.level)
        return ix - self.col0, iy - self.row0

    # -- grid-snapped gestures -------------------------------------------

    def pan(self, dx_pixels: float, dy_pixels: float) -> "GridViewport":
        """Shift by a whole number of pixels at this level.

        Fractional offsets snap to the nearest integer so the result
        stays on the block lattice; panning right then left returns the
        *identical* viewport value, not a float neighbor of it.
        """
        return self.grid.viewport(
            self.level,
            self.col0 + int(round(dx_pixels)),
            self.row0 + int(round(dy_pixels)),
            self.width, self.height)

    def zoom(self, factor: float) -> "GridViewport":
        """Zoom by (approximately) ``factor``, snapped to a power of two.

        ``factor`` > 1 widens the window (zoom out, coarser pyramid
        level); < 1 narrows it.  The window center stays fixed up to
        grid snapping, and zooming below level 0 clamps — the base grid
        is the finest data the pyramid holds.
        """
        if factor <= 0:
            raise ValueError(f"zoom factor must be positive, got {factor}")
        steps = int(round(math.log2(factor)))
        new_level = max(0, self.level + steps)
        if new_level == self.level:
            return self
        # Re-center in base-pixel units, then snap to the new level.
        cx = (self.col0 + self.width / 2.0) * (1 << self.level)
        cy = (self.row0 + self.height / 2.0) * (1 << self.level)
        scale = 1 << new_level
        col0 = int(round(cx / scale - self.width / 2.0))
        row0 = int(round(cy / scale - self.height / 2.0))
        return self.grid.viewport(new_level, col0, row0,
                                  self.width, self.height)


def grid_viewport_for(viewport: Viewport,
                      block: int = DEFAULT_BLOCK) -> GridViewport:
    """Pin a planned viewport to its own level-0 canvas grid.

    The result renders the same world window at the same resolution;
    it just *also* carries the grid identity that makes its canvases
    assemble from (and contribute to) the block cache.
    """
    if isinstance(viewport, GridViewport):
        return viewport
    grid = CanvasGrid.from_viewport(viewport, block)
    return grid.viewport(0, 0, 0, viewport.width, viewport.height)


# -- block cache plumbing --------------------------------------------------


def block_key(table_fp: tuple, query: SpatialAggregation, kind: str,
              grid: CanvasGrid, level: int, bx: int, by: int) -> tuple:
    """Cache key of one block plane.

    ``table_fp`` is the table's never-reused :func:`fingerprint`; the
    table is immutable, so the key alone decides the block's values.
    The filters enter as the query's :attr:`~repro.core.query
    .SpatialAggregation.filter_key`, rendered once per query, not once
    per block and kind.
    """
    return ("canvas-block", table_fp, query.filter_key,
            query.value_column, kind, grid, level, bx, by)


def assemble_canvases(ctx, source, query: SpatialAggregation,
                      viewport: GridViewport,
                      derive_sums: bool) -> tuple[dict, dict]:
    """Produce the query's canvases from the block cache + delta scatter.

    Two phases.  First every block under the viewport is resolved in
    preference order: reuse a cached plane; else derive it from four
    cached children one level down (2x2 reduction — the zoom-out path);
    else list its missing kinds.  Then *one* point pass of ``source``
    fills every listed block (the pipeline's block sink: one canvas over
    their bounding block rectangle), so a store streams each partition
    once per frame, not once per block.  Each
    block is handed copies of only the kinds it was missing.  Derived
    and fresh planes are cached full-size only after the pass returns —
    a cancelled frame installs nothing — so the *next* gesture
    assembles from them.  Returns ``({kind: flat canvas}, reuse info)``.
    """
    grid = viewport.grid
    level = viewport.level
    size = grid.block
    kinds = canvas_kinds(query.agg)
    table_fp = fingerprint(source.table)
    cache = ctx.cache
    info = {"blocks": 0, "hits": 0, "derived": 0, "scattered": 0,
            "assembled_pixels": 0, "scattered_pixels": 0,
            "points_scattered": 0}

    def key(kind, lvl, bx, by):
        return block_key(table_fp, query, kind, grid, lvl, bx, by)

    with span("pyramid.assemble") as sp:
        resolved = []   # (view_sl, block_sl, planes) per block
        installs = []   # (key, plane) to cache once the frame is whole
        needs = []      # (bx, by, missing kinds): the scatter's input
        pending = []    # the planes dict of each block in ``needs``
        for bx, by, view_sl, block_sl in grid_block_tiles(viewport):
            info["blocks"] += 1
            visible = ((view_sl[0].stop - view_sl[0].start)
                       * (view_sl[1].stop - view_sl[1].start))
            planes = {}
            missing = []
            for kind in kinds:
                plane = cache.get(key(kind, level, bx, by))
                if plane is None:
                    missing.append(kind)
                else:
                    planes[kind] = plane
            derived = False
            if missing and level > 0 and all(
                    k in _ALWAYS_DERIVABLE or derive_sums for k in missing):
                children = {}
                for kind in missing:
                    quads = [cache.peek(key(kind, level - 1,
                                            2 * bx + rx, 2 * by + ry))
                             for ry in (0, 1) for rx in (0, 1)]
                    if any(q is None for q in quads):
                        children = None
                        break
                    children[kind] = quads
                if children is not None:
                    for kind in missing:
                        tl, tr, bl, br = children[kind]
                        quad = np.empty((2 * size, 2 * size),
                                        dtype=np.float64)
                        quad[:size, :size] = tl
                        quad[:size, size:] = tr
                        quad[size:, :size] = bl
                        quad[size:, size:] = br
                        plane = reduce2x2(quad, PYRAMID_OPS[kind])
                        installs.append((key(kind, level, bx, by), plane))
                        planes[kind] = plane
                    missing = []
                    derived = True
            if missing:
                needs.append((bx, by, tuple(missing)))
                pending.append(planes)
                info["scattered"] += 1
                info["scattered_pixels"] += visible
            else:
                info["derived" if derived else "hits"] += 1
                info["assembled_pixels"] += visible
            resolved.append((view_sl, block_sl, planes))

        if needs:
            with span("scatter") as scatter_sp:
                sink = Blocks(grid, level, [(bx, by) for bx, by, _ in needs])
                fresh = fill(source, query, sink, tuple(dict.fromkeys(
                    k for *_, missing in needs for k in missing)))
                for slot, ((bx, by, missing), planes) in enumerate(
                        zip(needs, pending)):
                    for kind in missing:
                        plane = sink.plane(fresh.canvases[kind], slot)
                        installs.append((key(kind, level, bx, by), plane))
                        planes[kind] = plane
            scatter_sp.set(blocks=len(needs), partitions=fresh.paged,
                           points=fresh.points)
            if source.narrowed is not None:
                scatter_sp.set(narrowed=source.narrowed)
            info["points_scattered"] = fresh.points
        # Install the new planes and paste the frame.  The canvases are
        # allocated here, where they are first written, so their fresh
        # pages are charged to this span rather than to no span at all.
        with span("pyramid.install"):
            for entry_key, plane in installs:
                cache.put(entry_key, plane)
            canvases = {k: np.full((viewport.height, viewport.width),
                                   FILLS[k], dtype=np.float64)
                        for k in kinds}
            for view_sl, block_sl, planes in resolved:
                for kind in kinds:
                    canvases[kind][view_sl] = planes[kind][block_sl]
    sp.set(blocks=info["blocks"], hits=info["hits"],
           derived=info["derived"], scattered=info["scattered"])

    cache.note_blocks(
        hits=info["hits"], misses=info["scattered"],
        derived=info["derived"],
        assembled_pixels=info["assembled_pixels"],
        scattered_pixels=info["scattered_pixels"])
    return {k: v.ravel() for k, v in canvases.items()}, info


def block_coverage(ctx, table: PointTable, query: SpatialAggregation,
                   viewport: GridViewport) -> float:
    """Fraction of viewport pixels servable from cached blocks.

    A peek-only probe (no LRU touches, no hit/miss counters) the
    planner uses to discount the bounded backend's point-pass cost —
    how ``method="auto"`` prices assembly against re-scatter.
    """
    grid = viewport.grid
    level = viewport.level
    kinds = canvas_kinds(query.agg)
    table_fp = fingerprint(table)
    cache = ctx.cache
    derive_sums = (query.value_column is None or bool(cache.peek(
        ("column-integral", table_fp, query.value_column))))

    def key(kind, lvl, bx, by):
        return block_key(table_fp, query, kind, grid, lvl, bx, by)

    total = covered = 0
    for bx, by, view_sl, __ in grid_block_tiles(viewport):
        visible = ((view_sl[0].stop - view_sl[0].start)
                   * (view_sl[1].stop - view_sl[1].start))
        total += visible
        servable = True
        for kind in kinds:
            if cache.peek(key(kind, level, bx, by)) is not None:
                continue
            if (level > 0 and (kind in _ALWAYS_DERIVABLE or derive_sums)
                    and all(cache.peek(key(kind, level - 1,
                                           2 * bx + rx, 2 * by + ry))
                            is not None
                            for ry in (0, 1) for rx in (0, 1))):
                continue
            servable = False
            break
        if servable:
            covered += visible
    return covered / total if total else 0.0


def assembled_bounded_join(
    ctx,
    table,
    regions: RegionSet,
    query: SpatialAggregation,
    viewport: GridViewport,
    fragments: FragmentTable | None = None,
) -> AggregationResult:
    """The bounded raster join, produced by pyramid assembly.

    Identical join and bound math to :func:`~repro.core.bounded
    .bounded_raster_join` — only the canvases' provenance differs, and
    the block sink folds each pixel's points in the same order as the
    direct pass, so the answers (estimate, lower, upper) are
    bitwise-equal for COUNT/SUM/MIN/MAX and within reassociation
    round-off for AVG.

    ``table`` is a point source (a bare table is wrapped with the
    context's cached grid index and pixel columns).  Coarse SUM blocks
    derive by 2x2 reduction only where the source proves the value
    column integral; COUNT/MIN/MAX always derive.
    """
    source = as_source(table, ctx)
    t0 = time.perf_counter()
    if fragments is None:
        fragments = ctx.fragments_for(regions, viewport)
    t_polygons = time.perf_counter() - t0

    t1 = time.perf_counter()
    derive_sums = (query.value_column is None
                   or source.integral(query.value_column))
    canvases, info = assemble_canvases(ctx, source, query, viewport,
                                       derive_sums)
    t_points = time.perf_counter() - t1

    t2 = time.perf_counter()
    with span("gather"):
        estimate, lower, upper = join_with_bounds(fragments, canvases,
                                                  query.agg)
        if "count" in canvases:
            in_viewport = int(round(float(canvases["count"].sum())))
        else:
            in_viewport = info["points_scattered"]
    t_join = time.perf_counter() - t2

    assembled = info["assembled_pixels"]
    total = assembled + info["scattered_pixels"]
    stats = {
        "points_total": len(source.table),
        "points_after_filter": source.filtered_count(query),
        "points_in_viewport": in_viewport,
        "time_polygon_pass_s": t_polygons,
        "time_point_pass_s": t_points,
        "time_join_s": t_join,
        "interior_fragments": fragments.num_interior_fragments,
        "boundary_fragments": fragments.num_boundary_fragments,
        "canvas_pixels": viewport.num_pixels,
        "epsilon_world_units": epsilon_for_viewport(viewport),
        "pyramid": {
            "path": "assembled",
            "level": viewport.level,
            "block": viewport.grid.block,
            "blocks": info["blocks"],
            "hits": info["hits"],
            "derived": info["derived"],
            "scattered": info["scattered"],
            "assembled_pixels": assembled,
            "scattered_pixels": info["scattered_pixels"],
            "points_scattered": info["points_scattered"],
            "reuse_fraction": assembled / total if total else 0.0,
        },
    }
    return AggregationResult(
        regions=regions,
        values=estimate,
        method="pyramid-raster-join",
        lower=lower,
        upper=upper,
        exact=False,
        stats=stats,
    )


def grid_bounded_join(ctx, table, regions: RegionSet,
                      query: SpatialAggregation, viewport: GridViewport,
                      fragments: FragmentTable, cancel=None
                      ) -> AggregationResult:
    """The bounded join of an in-memory table on a grid viewport.

    Blocks pay off only when the viewport moves under one (table,
    filters, aggregate kinds, grid) family, so a frame assembles only
    when a cached block serves part of it or the family was last seen
    at another viewport; otherwise it runs the direct join on the same
    viewport (bitwise the same answer) and installs nothing.  Either way
    the method is ``pyramid-raster-join``; ``stats["pyramid"]["path"]``
    and, traced, the span attr ``pyramid="direct"`` tell them apart.
    """
    source = TableSource(table, ctx, cancel)
    family = ("blocks", fingerprint(table), query.filter_key,
              query.value_column, canvas_kinds(query.agg), viewport.grid)
    last = ctx.cache.note_seen(family, viewport)
    if last not in (None, viewport) or block_coverage(
            ctx, table, query, viewport) > 0:
        return assembled_bounded_join(ctx, source, regions, query,
                                      viewport, fragments=fragments)
    (current_span() or NULL_SPAN).set(pyramid="direct")
    result = bounded_raster_join(source, regions, query, viewport,
                                 fragments=fragments)
    result.method = "pyramid-raster-join"
    result.stats["pyramid"] = {"path": "direct", "level": viewport.level,
                               "block": viewport.grid.block}
    return result
