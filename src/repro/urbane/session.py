"""Interactive session driver.

The demo's claim is *interactivity*: every user gesture — brushing the
timeline, toggling a filter, switching the spatial resolution, panning
the map — triggers fresh spatial aggregations that must return at
human-in-the-loop latency.  :class:`InteractiveSession` replays such
gesture sequences headlessly against a :class:`DataManager` and records
per-interaction latency; the E8 benchmark and the session example are
built on it.  :class:`RemoteSession` replays the same gestures against
a query server; both inherit them from :class:`GestureSession`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from ..core import AggregationResult, SpatialAggregation
from ..errors import QueryError, ReproError
from ..table import FilterExpr, TimeRange
from .datamanager import DataManager

#: Latency below which an update feels interactive (the usual HCI bar).
INTERACTIVE_THRESHOLD_S = 1.0


def _snap_bbox_viewport(gv, bbox):
    """A world window snapped onto ``gv``'s canvas grid at its level.

    Edges round to the nearest pixel boundary *before* the query is
    keyed, so a window dragged back to (almost) a previous position
    fingerprints identically to it and reuses its cached blocks.
    """
    grid = gv.grid
    pw = grid.pw * (1 << gv.level)
    ph = grid.ph * (1 << gv.level)
    col0 = int(round((bbox.xmin - grid.x0) / pw))
    row0 = int(round((bbox.ymin - grid.y0) / ph))
    width = max(1, int(round((bbox.xmax - bbox.xmin) / pw)))
    height = max(1, int(round((bbox.ymax - bbox.ymin) / ph)))
    return grid.viewport(gv.level, col0, row0, width, height)


@dataclass
class Interaction:
    """One logged gesture: what changed and how long the refresh took."""

    op: str
    detail: str
    latency_s: float
    rows_aggregated: int = 0
    #: Unified-cache lookups this gesture reused / had to build.
    cache_hits: int = 0
    cache_misses: int = 0
    #: Backend the plan resolved to for this gesture.
    backend: str = ""
    #: Pyramid block-cache traffic (zeros off the pyramid path).
    block_hits: int = 0
    block_misses: int = 0
    #: Fraction of canvas pixels served from cached blocks.
    block_reuse: float = 0.0

    @classmethod
    def from_stats(cls, op: str, detail: str, latency_s: float,
                   stats: dict | None, method: str) -> "Interaction":
        """The log row for one refresh, read from its result ``stats`` —
        the same payload whether the engine ran in-process or behind a
        server (``method`` names the backend when no plan was recorded).
        """
        stats = stats or {}
        cache = stats.get("cache") or {}
        blocks = cache.get("blocks") or {}
        plan = stats.get("plan") or {}
        return cls(
            op=op, detail=detail, latency_s=latency_s,
            rows_aggregated=int(stats.get("points_after_filter", 0) or 0),
            cache_hits=int(cache.get("query_hits", 0)),
            cache_misses=int(cache.get("query_misses", 0)),
            backend=(plan.get("decision") or {}).get("chosen", method),
            block_hits=int(blocks.get("hits", 0) + blocks.get("derived", 0)),
            block_misses=int(blocks.get("misses", 0)),
            block_reuse=float(blocks.get("reuse_fraction", 0.0)))


@dataclass
class SessionState:
    """Current exploration state (what the UI widgets would show)."""

    dataset: str
    regions: str
    agg: SpatialAggregation = field(
        default_factory=SpatialAggregation.count)
    filters: tuple[FilterExpr, ...] = ()
    time_brush: TimeRange | None = None

    def effective_query(self) -> SpatialAggregation:
        """The aggregation with the session's filters applied."""
        query = SpatialAggregation(self.agg.agg, self.agg.value_column,
                                   self.agg.filters + self.filters)
        if self.time_brush is not None:
            query = query.where(self.time_brush)
        return query


class GestureSession:
    """The gesture vocabulary, the interaction log and its reporting.

    Every gesture edits :class:`SessionState` (or the map window) and
    refreshes; a subclass says only how the grid viewport is planned
    (:meth:`_plan_grid`) and how one query runs (:meth:`_run`).
    """

    def __init__(self, dataset: str, regions: str, method: str,
                 resolution: int | None):
        self.method = method
        self.resolution = resolution
        self.state = SessionState(dataset=dataset, regions=regions)
        self.log: list[Interaction] = []
        self.last_result = None
        # Grid-snapped viewport driving map gestures; created lazily on
        # the first pan/zoom so sessions that never move the map keep
        # the plain planned-viewport path (and its cache keys).
        self._viewport = None
        # Initial render so the cache state matches a real session
        # (polygons rasterized once when the view opens).
        self._refresh("open", f"{dataset} x {regions}")

    # -- gestures ---------------------------------------------------------

    def set_aggregation(self, agg: SpatialAggregation):
        self.state.agg = agg
        return self._refresh("aggregate", agg.describe())

    def add_filter(self, expr: FilterExpr):
        self.state.filters = self.state.filters + (expr,)
        return self._refresh("filter+", type(expr).__name__)

    def clear_filters(self):
        self.state.filters = ()
        return self._refresh("filter-clear", "")

    def brush_time(self, start: int, end: int, time_column: str = "t"):
        if end <= start:
            raise QueryError(f"empty time brush [{start}, {end})")
        self.state.time_brush = TimeRange(time_column, start, end)
        return self._refresh("time-brush", f"[{start}, {end})")

    def clear_time_brush(self):
        self.state.time_brush = None
        return self._refresh("time-brush-clear", "")

    def set_region_level(self, regions: str):
        self.state.regions = regions
        # The canvas grid is planned per region set; a stale viewport
        # would pin the old world window over the new polygons.
        self._viewport = None
        return self._refresh("resolution", regions)

    def set_dataset(self, dataset: str):
        """Switch data set.  Attribute filters are dropped (they refer to
        the old schema, as Urbane's per-dataset filter widgets do); the
        time brush carries over since every data set shares the
        timeline."""
        self.state.dataset = dataset
        self.state.filters = ()
        return self._refresh("dataset", dataset)

    # -- map gestures ------------------------------------------------------

    def grid_viewport(self):
        """The session's grid-snapped viewport (created on first use).

        Pinning the canvas to a :class:`~repro.core.pyramid.CanvasGrid`
        makes every later pan/zoom land on block-aligned cache keys, so
        overlapping gestures assemble from cached pyramid blocks
        instead of re-scattering the points.
        """
        if self._viewport is None:
            self._viewport = self._plan_grid()
        return self._viewport

    def pan(self, dx_pixels: float, dy_pixels: float):
        """Shift the map window; snaps to whole pixels on the canvas
        grid so the new frame reuses every block it still overlaps."""
        self._viewport = self.grid_viewport().pan(dx_pixels, dy_pixels)
        return self._refresh("pan", f"({dx_pixels:+g}, {dy_pixels:+g})")

    def zoom(self, factor: float):
        """Zoom the map window; snaps to the pyramid's power-of-two
        levels, so zooming out serves from 2x2-reduced cached blocks."""
        self._viewport = self.grid_viewport().zoom(factor)
        return self._refresh("zoom", f"x{factor:g}")

    def set_viewport(self, bbox):
        """Jump to a world window, snapped to the canvas pixel grid.

        Edges round to the nearest pixel boundary at the current level
        *before* the query is keyed, so a window dragged back to
        (almost) a previous position fingerprints identically to it and
        reuses its cached blocks.
        """
        gv = _snap_bbox_viewport(self.grid_viewport(), bbox)
        self._viewport = gv
        return self._refresh(
            "viewport",
            f"[{gv.col0},{gv.row0}) {gv.width}x{gv.height}@L{gv.level}")

    # -- internals ----------------------------------------------------------

    def _plan_grid(self):
        """The grid viewport for the current region set."""
        raise NotImplementedError

    def _run(self, op: str, query: SpatialAggregation):
        """Run ``query`` for gesture ``op`` on the current view."""
        raise NotImplementedError

    def _refresh(self, op: str, detail: str):
        query = self.state.effective_query()
        t0 = time.perf_counter()
        result = self._run(op, query)
        latency = time.perf_counter() - t0
        self.last_result = result
        self.log.append(Interaction.from_stats(
            op, detail, latency, result.stats, result.method))
        return result

    # -- reporting -------------------------------------------------------------

    def latencies(self) -> np.ndarray:
        return np.array([i.latency_s for i in self.log])

    def summary(self) -> dict:
        """Latency statistics across the logged interactions."""
        lat = self.latencies()
        if len(lat) == 0:
            return {"interactions": 0}
        hits = sum(i.cache_hits for i in self.log)
        misses = sum(i.cache_misses for i in self.log)
        block_hits = sum(i.block_hits for i in self.log)
        block_misses = sum(i.block_misses for i in self.log)
        return {
            "interactions": len(lat),
            "mean_latency_s": float(lat.mean()),
            "max_latency_s": float(lat.max()),
            "p95_latency_s": float(np.quantile(lat, 0.95)),
            "interactive_fraction": float(
                (lat <= INTERACTIVE_THRESHOLD_S).mean()),
            "cache_hits": hits,
            "cache_misses": misses,
            "cache_hit_rate": (hits / (hits + misses)
                               if hits + misses else 0.0),
            "block_hits": block_hits,
            "block_misses": block_misses,
            "block_reuse_rate": (block_hits / (block_hits + block_misses)
                                 if block_hits + block_misses else 0.0),
        }

    def report(self) -> str:
        """Human-readable per-interaction log."""
        lines = [f"{'op':<16} {'detail':<32} {'backend':<10} "
                 f"{'cache':>7} {'blocks':>7} {'latency':>9}"]
        for item in self.log:
            lines.append(
                f"{item.op:<16} {item.detail[:32]:<32} "
                f"{item.backend[:10]:<10} "
                f"{item.cache_hits:>3}h{item.cache_misses:>2}m "
                f"{item.block_reuse * 100:5.0f}%b "
                f"{item.latency_s * 1000:7.1f}ms")
        stats = self.summary()
        lines.append(
            f"-- {stats['interactions']} interactions, "
            f"mean {stats['mean_latency_s'] * 1000:.1f}ms, "
            f"max {stats['max_latency_s'] * 1000:.1f}ms, "
            f"{stats['interactive_fraction'] * 100:.0f}% interactive, "
            f"cache hit rate {stats['cache_hit_rate'] * 100:.0f}%, "
            f"block reuse {stats['block_reuse_rate'] * 100:.0f}%")
        return "\n".join(lines)


class InteractiveSession(GestureSession):
    """Replays exploration gestures against an in-process engine."""

    def __init__(self, manager: DataManager, dataset: str, regions: str,
                 method: str = "bounded", resolution: int = 512):
        self.manager = manager
        #: The cube spec the previous brush asked for (see _brush_method).
        self._brush_spec = None
        super().__init__(dataset, regions, method, int(resolution))

    def set_region_level(self, regions: str) -> AggregationResult:
        self.manager.region_set(regions)  # validate early
        return super().set_region_level(regions)

    def set_dataset(self, dataset: str) -> AggregationResult:
        table = self.manager.dataset(dataset)  # validate early
        # An aggregation over a column the new data set lacks falls back
        # to COUNT (the UI resets its measure dropdown the same way).
        value_column = self.state.agg.value_column
        if value_column is not None and not table.has_column(value_column):
            self.state.agg = SpatialAggregation.count()
        return super().set_dataset(dataset)

    # -- internals ----------------------------------------------------------

    def _plan_grid(self):
        regions = self.manager.region_set(self.state.regions)
        return self.manager.engine.plan_grid_viewport(
            regions, self.resolution)

    def _run(self, op: str, query: SpatialAggregation) -> AggregationResult:
        method = self.method
        if op == "time-brush":
            method = self._brush_method(query)
        try:
            return self.manager.aggregate(
                self.state.dataset, self.state.regions, query,
                method=method, resolution=self.resolution,
                viewport=self._viewport)
        except ReproError:
            # The cube path can still decline once it runs (its build
            # re-checks the slice and memory caps, its answer the bucket
            # alignment); the configured method is always a valid answer.
            if method == self.method:
                raise
            return self.manager.aggregate(
                self.state.dataset, self.state.regions, query,
                method=self.method, resolution=self.resolution,
                viewport=self._viewport)

    def _brush_method(self, query: SpatialAggregation) -> str:
        """Pick the backend for a time-brush gesture.

        A brush only changes the :class:`TimeRange` predicate, which is
        exactly what the temporal canvas cube answers in O(pixels).  The
        gesture runs ``tcube-raster`` when
        :func:`~repro.core.tcube.cube_for_brush` finds a cached cube, or
        a build within the caps that the session's previous brush asked
        for too; otherwise it re-scatters with the configured method.
        So a sweep's first step re-scatters, its second builds the cube
        and the rest hit it, while a one-off brush never pays a build.
        """
        from ..core.tcube import TemporalCanvasCube, cube_for_brush

        engine = self.manager.engine
        chosen = None
        try:
            table = self.manager.dataset(self.state.dataset)
            regions = self.manager.region_set(self.state.regions)
            viewport = self._viewport or engine.plan_viewport(
                regions, self.resolution, None)
            chosen = cube_for_brush(engine.ctx, table, query, viewport)
        except ReproError:
            pass
        cached = isinstance(chosen, TemporalCanvasCube)
        spec = chosen.spec if cached else chosen
        repeat = spec is not None and spec == self._brush_spec
        self._brush_spec = spec
        return "tcube-raster" if cached or repeat else self.method


class RemoteSession(GestureSession):
    """An interactive session whose queries run on a query server.

    The same gesture vocabulary as :class:`InteractiveSession`, but the
    data lives behind a ``repro serve`` endpoint: every gesture becomes
    one protocol request through a
    :class:`~repro.serve.client.ServeClient`, so many analysts share
    one engine — and its unified cache, admission control, and query
    coalescing (two sessions brushing the same week coalesce into one
    execution).  Latencies logged here include the network round trip.

    Schema validation is the server's job: a filter over a column the
    served data set lacks comes back as a
    :class:`~repro.errors.QueryError` on the gesture that used it.
    """

    def __init__(self, url_or_client, dataset: str, regions: str,
                 method: str = "auto", resolution: int | None = None,
                 deadline_ms: float | None = None):
        from ..serve.client import ServeClient

        if isinstance(url_or_client, str):
            self.client = ServeClient(url_or_client)
        else:
            self.client = url_or_client
        #: Per-gesture latency budget, degrading precision server-side.
        self.deadline_ms = deadline_ms
        super().__init__(dataset, regions, method, resolution)

    def _plan_grid(self):
        """Planned by the server (``GET /v1/viewport``); the wire
        encoding carries only the grid anchor and integer window, so
        every pan/zoom derived from it keys identically to the server's
        own planning and two sessions panning over the same blocks
        share the server's cache."""
        return self.client.plan_viewport(self.state.regions,
                                         self.resolution)

    def _run(self, op: str, query: SpatialAggregation):
        return self.client.query(
            self.state.dataset, self.state.regions, query=query,
            method=self.method, resolution=self.resolution,
            deadline_ms=self.deadline_ms, viewport=self._viewport)
