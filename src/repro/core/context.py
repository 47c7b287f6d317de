"""Execution context: shared configuration + the unified cache.

An :class:`ExecutionContext` is what backends run against.  It owns the
one :class:`~repro.core.cache.QueryCache` for the whole execution path
and exposes typed accessors for the artifacts backends reuse between
gestures — fragment tables per (region set, viewport), point indexes
per table, materialized cubes per (table, region set, measure).  All
keys are content fingerprints (see :mod:`repro.core.cache`), never raw
``id()`` values.
"""

from __future__ import annotations

import weakref
from dataclasses import replace

from .. import kernels
from ..errors import QueryError
from ..index import PointGridIndex
from ..obs.trace import span
from ..raster import FragmentTable, Viewport
from ..raster.fragments import polygon_pass
from ..table import PointTable
from .bounds import resolution_for_epsilon
from .cache import QueryCache, fingerprint
from .regions import RegionSet

DEFAULT_RESOLUTION = 512
MAX_CANVAS_RESOLUTION = 4096


class ExecutionContext:
    """Configuration + unified cache shared by every backend."""

    def __init__(self, default_resolution: int = DEFAULT_RESOLUTION,
                 max_canvas_resolution: int = MAX_CANVAS_RESOLUTION,
                 cache_max_bytes: int = 256 * 1024 * 1024,
                 cache_max_entries: int = 512,
                 kernel: str = "auto"):
        if default_resolution < 1:
            raise QueryError("default_resolution must be positive")
        self.default_resolution = int(default_resolution)
        self.max_canvas_resolution = int(max_canvas_resolution)
        self.cache = QueryCache(max_bytes=cache_max_bytes,
                                max_entries=cache_max_entries)
        # Kernel selection is process-global; the context records the
        # request and resolves it eagerly so a bad explicit choice fails
        # at construction, not mid-query.
        self.kernel = kernels.select(kernel).name

    def kernel_info(self) -> dict:
        """Requested vs selected kernel (``stats["plan"]["kernel"]``)."""
        return kernels.info()

    # -- viewport planning -------------------------------------------------

    def plan_viewport(self, regions: RegionSet, resolution: int | None,
                      epsilon: float | None) -> Viewport:
        """Resolve the canvas for a query.

        ``epsilon`` (world units) wins over ``resolution``; the canvas is
        sized so the pixel diagonal honors it.
        """
        if epsilon is not None:
            resolution = resolution_for_epsilon(
                regions.bbox, epsilon,
                max_resolution=self.max_canvas_resolution)
        if resolution is None:
            resolution = self.default_resolution
        if resolution > self.max_canvas_resolution:
            raise QueryError(
                f"resolution {resolution} exceeds the canvas cap "
                f"{self.max_canvas_resolution}; use method='tiled'")
        return Viewport.fit(regions.bbox, resolution)

    def plan_grid_viewport(self, regions: RegionSet,
                           resolution: int | None = None,
                           epsilon: float | None = None,
                           block: int | None = None):
        """A grid-snapped viewport for interactive pan/zoom sequences.

        Same world window and resolution as :meth:`plan_viewport`, but
        pinned to a :class:`~repro.core.pyramid.CanvasGrid` so gestures
        derived from it (``pan``/``zoom``) land on reusable canvas-block
        keys; the planning inputs are deterministic, so the same region
        set + resolution always yields the same grid identity.
        """
        from .pyramid import DEFAULT_BLOCK, grid_viewport_for

        viewport = self.plan_viewport(regions, resolution, epsilon)
        return grid_viewport_for(viewport, block or DEFAULT_BLOCK)

    # -- cached artifacts --------------------------------------------------

    def fragments_for(self, regions: RegionSet,
                      viewport: Viewport) -> FragmentTable:
        """The (cached) polygon render pass for a region set + viewport."""
        key = ("fragments", fingerprint(regions), viewport)

        def build() -> FragmentTable:
            geometries = list(regions.geometries)
            # The span lives here, around the build itself: a cache hit
            # opens nothing, and a cold query's polygon pass is charged
            # to ``fragments`` rather than to ``backend.run`` self time.
            with span("fragments") as sp:
                table, edge_rows = polygon_pass(geometries, viewport)
            sp.set(regions=len(geometries), pixels=viewport.num_pixels,
                   runs=(table.intervals.num_full_runs
                         + table.intervals.num_partial_runs),
                   edge_rows=edge_rows)
            return replace(table, plans=plans)

        # The table holds its cache weakly: a strong reference would be
        # a cycle that keeps a dropped engine's cache alive until the
        # garbage collector runs.
        cache = weakref.ref(self.cache)

        def plans(plan_key, prepare):
            # A plan is cached next to its table, and evicted with it.
            live = cache()
            if live is None or key not in live:
                return prepare()
            return live.get_or_build(("gather-plan", key, *plan_key),
                                     prepare)

        return self.cache.get_or_build(key, build)

    def has_fragments(self, regions: RegionSet, viewport: Viewport) -> bool:
        return ("fragments", fingerprint(regions), viewport) in self.cache

    def grid_index(self, table: PointTable) -> PointGridIndex:
        key = ("grid-index", fingerprint(table))
        return self.cache.get_or_build(
            key, lambda: PointGridIndex.over(table.x, table.y, cells=128))

    def has_index(self, table: PointTable) -> bool:
        """Whether the grid index over ``table`` is cached."""
        return ("grid-index", fingerprint(table)) in self.cache

    def cube_for(self, table: PointTable, regions: RegionSet,
                 build_spec: tuple, builder):
        """A materialized cube for (table, regions, materialization spec)."""
        key = ("cube", fingerprint(table), fingerprint(regions), build_spec)
        return self.cache.get_or_build(key, builder)

    def cached_cubes(self, table: PointTable, regions: RegionSet) -> list:
        """Every cube already materialized for this (table, regions) pair
        — what the planner probes before it will ever pick ``cube``."""
        rfp = fingerprint(regions)
        return [cube for key, cube in self.cache.family(
                    "cube", fingerprint(table)) if key[2] == rfp]

    def tcube_for(self, table: PointTable, spec: tuple, builder):
        """A temporal canvas cube for (table, build spec).

        ``spec`` is :attr:`TemporalCanvasCube.spec` — (viewport, time
        column, bucket seconds, value column, residual filters) — so the
        entry is region-set independent: any region set rendered over
        the same viewport reuses the same cube.
        """
        key = ("tcube", fingerprint(table), spec)
        return self.cache.get_or_build(key, builder)

    def cached_tcubes(self, table: PointTable) -> list:
        """Every temporal canvas cube materialized for this table —
        what the planner probes before paying a build or a
        re-scatter."""
        return [cube for __, cube in self.cache.family(
                    "tcube", fingerprint(table))]
