"""Temporal canvas cube: prefix-summed time-sliced canvases.

Brushing the timeline re-runs the whole point pass per gesture even
though only the :class:`TimeRange` predicate changed — O(|P|) per brush
step.  The paper's argument against data cubes is that *polygons* are ad
hoc; the canvas, however, is polygon-agnostic, so pre-aggregating along
time **on the canvas** keeps arbitrary polygons and filters while making
any time-range query a two-slice difference:

1. **Bucket once** — the residual-filtered, in-viewport points are
   assigned a time bucket (``(t - origin) // bucket_seconds``) and a
   canvas pixel.
2. **Scatter per bucket** — count/sum contributions accumulate into
   per-bucket slices stored sparsely over the *active pixels* (the
   sorted union of pixels any point touches; NYC-style canvases are
   mostly empty, so this is the CSR-style compression that keeps the
   cube small).
3. **Prefix-sum along time** — slices are cumulatively summed, so the
   canvas for any aligned ``[t0, t1)`` materializes as
   ``prefix[b1] - prefix[b0]`` in O(pixels + active), independent of
   point count.

The gather join is linear in the canvas, so it distributes over the
prefix sum: :meth:`TemporalCanvasCube.answer` gathers a prefix row per
region over the fragment table's runs (the FULL, covered and PARTIAL
runs :func:`~repro.core.bounded.gather_partial` and
:func:`~repro.core.bounds.boundary_mass` gather) the first time a brush
touches that row's bucket edge, after which the brush is an O(regions)
row difference.  The bounded raster join's hard error guarantees
survive verbatim: COUNT answers and bounds are bitwise-identical to a
fresh scatter (integer counts are exact in float64 regardless of
addition order); SUM matches bitwise for integer-valued columns and to
float round-off otherwise; AVG follows from the two.

Cube construction is the point pipeline's filter → project → fold
(:mod:`repro.core.pipeline`) into (bucket, active pixel) cells plus a
cumsum, so the one-time build amortizes within a few brush steps.
A built cube is immutable: its prefix planes are read-only, so a cube
shared through the engine cache can never be written by a reader.
:func:`cube_for_brush` is the one rule for which cube serves a brush;
an :class:`~repro.urbane.InteractiveSession` builds one only when its
previous brush asked for the same cube (a sweep).
"""

from __future__ import annotations

import math
import threading
import time

import numpy as np

from ..errors import CubeError, QueryError
from ..index import dense_rank
from ..obs.trace import span
from ..raster import FragmentTable, Viewport
from ..raster.canvas import run_gather
from ..raster.pyramid import reduce2x2
from ..table import TIMESTAMP, PointTable
from .aggregates import AVG, COUNT, SUM
from .bounded import join_with_bounds
from .bounds import epsilon_for_viewport
from .pipeline import Window, as_source, fold, new_canvases, project
from .query import SpatialAggregation, split_time_filter
from .regions import RegionSet
from .result import AggregationResult

#: Aggregates a temporal canvas cube can answer.  Prefix sums only
#: difference for *additive* canvases; MIN/MAX slices do not subtract.
TCUBE_AGGREGATES = (COUNT, SUM, AVG)

#: Hard cap on the number of time slices one cube may hold.
MAX_TCUBE_SLICES = 4096

#: Memory ceiling for a single cube's prefix planes.  Estimated before
#: building with ``active <= min(points, pixels)``; a brush whose
#: alignment would need more slices than fit simply is not served from
#: a cube (the caller falls back to re-scattering).
MAX_TCUBE_BYTES = 256 * 1024 * 1024

#: Bucket widths the inference ladder tries, coarsest first: week, day,
#: quarter-day, hour, 15 min, minute, second.  Coarsest-aligned wins, so
#: repeated brushes at the UI's granularity all hit one cube.
BUCKET_LADDER = (7 * 86_400, 86_400, 6 * 3_600, 3_600, 900, 60, 1)


def _same_filters(a, b) -> bool:
    """Order-insensitive filter-tuple equality (filters are frozen
    dataclasses, so ``repr`` is canonical)."""
    return sorted(map(repr, a)) == sorted(map(repr, b))


def infer_bucket_seconds(start: int, end: int, tmin: int, tmax: int,
                         max_slices: int = MAX_TCUBE_SLICES) -> int | None:
    """The coarsest bucket width whose grid can answer ``[start, end)``.

    A grid with origin ``floor(tmin / c) * c`` answers the brush when
    each endpoint either lands on a bucket edge or clamps past the data
    span, and the span fits in ``max_slices`` buckets.  The ladder is
    tried coarsest-first so the chosen granularity matches the UI's
    (every same-granularity brush then hits the same cube);
    ``gcd(start, end)`` is the last-resort fallback.
    """
    start, end, tmin, tmax = int(start), int(end), int(tmin), int(tmax)

    def fits(c: int) -> bool:
        if c < 1:
            return False
        origin = tmin // c * c
        buckets = (tmax - origin) // c + 1
        if buckets > max_slices:
            return False
        grid_end = origin + buckets * c
        return ((start <= origin or start % c == 0)
                and (end >= grid_end or end % c == 0))

    for c in BUCKET_LADDER:
        if fits(c):
            return c
    fallback = math.gcd(start, end)
    if fallback and fits(fallback):
        return fallback
    return None


class TemporalCanvasCube:
    """Prefix-summed per-bucket canvases over a fixed viewport.

    ``prefix[kind]`` is a ``(num_buckets + 1, num_active_pixels)``
    float64 plane with ``prefix[0] == 0`` and ``prefix[b + 1] ==
    prefix[b] + slice_b``; ``active_pixels`` maps its columns back to
    flat canvas pixel ids.  Kinds: ``count`` always; ``sum`` when a
    value column is stored; ``mass`` (sum of |value|, for the SUM error
    bounds) only when the column has negative values — for non-negative
    columns the sum plane *is* the mass plane, the same reuse
    :mod:`repro.core.bounded` applies.  The planes are read-only.
    """

    def __init__(self, viewport: Viewport, time_column: str,
                 bucket_seconds: int, origin: int | None,
                 active_pixels: np.ndarray, prefix: dict[str, np.ndarray],
                 value_column: str | None = None,
                 residual_filters: tuple = (),
                 stats: dict | None = None):
        self.viewport = viewport
        self.time_column = time_column
        self.bucket_seconds = int(bucket_seconds)
        self.origin = None if origin is None else int(origin)
        self.active_pixels = active_pixels
        self.prefix = prefix
        self.value_column = value_column
        self.residual_filters = tuple(residual_filters)
        self.stats = stats or {}
        #: Per-bucket point counts (:meth:`answer`'s point count): exact
        #: differences of the count rows' totals, read-only.
        self.bucket_counts = np.diff(prefix["count"].sum(axis=1))
        self.bucket_counts.flags.writeable = False
        # Join-row memos by id(fragment table), least recently used
        # first; each holds its table, so an id is never recycled.
        self._joins: dict[int, _RunRows] = {}
        self._lock = threading.Lock()

    # -- geometry of the cube ---------------------------------------------

    @property
    def num_buckets(self) -> int:
        return next(iter(self.prefix.values())).shape[0] - 1

    @property
    def num_active_pixels(self) -> int:
        return int(len(self.active_pixels))

    @property
    def bucket_starts(self) -> np.ndarray:
        return ((self.origin or 0)
                + np.arange(self.num_buckets, dtype=np.int64)
                * self.bucket_seconds)

    @property
    def nonnegative_values(self) -> bool:
        """Whether the stored values are provably non-negative, so the
        sum plane doubles as the mass plane."""
        return "mass" not in self.prefix

    @property
    def spec(self) -> tuple:
        """The hashable build spec — the unified-cache key component."""
        return (self.viewport, self.time_column, self.bucket_seconds,
                self.value_column, self.residual_filters)

    def memory_bytes(self) -> int:
        """Resident bytes (the unified cache's byte accounting)."""
        return (int(self.active_pixels.nbytes)
                + sum(int(p.nbytes) for p in self.prefix.values()))

    # -- answerability -----------------------------------------------------

    def bucket_range(self, start: int, end: int) -> tuple[int, int] | None:
        """Map ``[start, end)`` onto slice indices, or None if unaligned.

        Endpoints must land on bucket edges; endpoints at or beyond the
        grid's edges clamp (no point lives out there, so clamping is
        exact).  An aligned range entirely outside the data maps to an
        empty ``(b, b)`` pair — still exactly answerable (all zeros).
        """
        num = self.num_buckets
        if num == 0:
            return 0, 0
        grid_end = self.origin + num * self.bucket_seconds

        def edge(t: int) -> int | None:
            if t <= self.origin:
                return 0
            if t >= grid_end:
                return num
            q, r = divmod(int(t) - self.origin, self.bucket_seconds)
            return int(q) if r == 0 else None

        b0, b1 = edge(start), edge(end)
        if b0 is None or b1 is None:
            return None
        return b0, max(b0, b1)

    def reduce_levels_for(self, viewport: Viewport) -> int | None:
        """How many 2x2 reductions turn this cube's canvas into
        ``viewport``'s — 0 for the cube's own viewport, ``d > 0`` when
        both are :class:`~repro.core.pyramid.GridViewport`\\ s on the
        same grid with the query ``d`` levels coarser and its window a
        coarse-aligned crop of the cube's (the zoom-out brush), None
        otherwise.

        Every query coarse pixel's base-pixel footprint must lie fully
        inside the cube's window: the cube's origin must sit on the
        coarse lattice, and the query window must not poke past the
        cube's — a partially-covered edge pixel would mix cube-covered
        base pixels with world the cube never scattered.
        """
        if viewport == self.viewport:
            return 0
        from .pyramid import GridViewport

        cv, qv = self.viewport, viewport
        if not (isinstance(cv, GridViewport)
                and isinstance(qv, GridViewport)):
            return None
        if cv.grid != qv.grid or qv.level <= cv.level:
            return None
        d = qv.level - cv.level
        scale = 1 << d
        if cv.col0 % scale or cv.row0 % scale:
            return None
        if (qv.col0 * scale < cv.col0
                or qv.row0 * scale < cv.row0
                or (qv.col0 + qv.width) * scale > cv.col0 + cv.width
                or (qv.row0 + qv.height) * scale > cv.row0 + cv.height):
            return None
        return d

    def can_answer(self, query: SpatialAggregation,
                   viewport: Viewport) -> bool:
        """Whether this cube answers ``query`` exactly as the bounded
        raster join would at ``viewport`` — the cube's own viewport, or
        (COUNT only) a same-grid viewport a whole number of pyramid
        levels coarser, served by 2x2-reducing the sliced canvas."""
        levels = self.reduce_levels_for(viewport)
        if levels is None:
            return False
        if levels and query.agg != COUNT:
            # A reduced SUM reassociates float additions; only the
            # integer-exact count canvas keeps the bitwise contract.
            return False
        if query.agg not in TCUBE_AGGREGATES:
            return False
        if query.agg != COUNT and query.value_column != self.value_column:
            return False  # the count plane is always stored; sums are not
        tr, residual = split_time_filter(query, self.time_column)
        if tr is None:
            return False
        if not _same_filters(residual, self.residual_filters):
            return False
        return self.bucket_range(tr.start, tr.end) is not None

    # -- range materialization ---------------------------------------------

    def range_canvas(self, kind: str, b0: int, b1: int) -> np.ndarray:
        """Dense canvas for buckets ``[b0, b1)``: the prefix-sum trick."""
        out = np.zeros(self.viewport.num_pixels, dtype=np.float64)
        if b1 > b0 and self.num_active_pixels:
            out[self.active_pixels] = (self.prefix[kind][b1]
                                       - self.prefix[kind][b0])
        return out

    # -- the query path ----------------------------------------------------

    def _run_rows(self, fragments: FragmentTable) -> "_RunRows":
        """The join-row memo of one fragment table, kept in an LRU of
        four (a cube rarely sees more than one or two region sets)."""
        with self._lock:
            rows = self._joins.pop(id(fragments), None)
            if rows is None:
                rows = _RunRows(fragments, self.active_pixels)
                if len(self._joins) >= 4:
                    self._joins.pop(next(iter(self._joins)))
            self._joins[id(fragments)] = rows
        return rows

    def answer(self, regions: RegionSet, fragments: FragmentTable,
               query: SpatialAggregation,
               viewport: Viewport | None = None) -> AggregationResult:
        """Answer one aggregate over the query's TimeRange.

        Serves the same estimate + boundary-mass bounds the bounded
        raster join computes, but from prefix-gathered join rows (see
        :class:`_RunRows`): once a brush's bucket edges have been
        gathered, a brush step costs O(regions), independent of both
        point count and canvas size.

        ``viewport`` (default: the cube's own) may be a same-grid
        viewport ``d`` pyramid levels coarser — the zoom-out brush.
        ``fragments`` must then be the polygon pass at *that* viewport;
        the sliced count canvas is 2x2-reduced ``d`` times before the
        gather join (COUNT only, see :meth:`reduce_levels_for`).
        """
        tr, __ = split_time_filter(query, self.time_column)
        if tr is None:
            raise QueryError(
                "tcube answers need exactly one TimeRange filter on "
                f"{self.time_column!r}")
        rng = self.bucket_range(tr.start, tr.end)
        if rng is None:
            raise CubeError(
                f"brush [{tr.start}, {tr.end}) does not align with the "
                f"cube's {self.bucket_seconds}s bucket grid")
        b0, b1 = rng

        if viewport is None:
            viewport = self.viewport
        levels = self.reduce_levels_for(viewport)
        if levels is None:
            raise CubeError(
                "viewport is neither the cube's own nor a same-grid "
                "pyramid coarsening of it")

        t0 = time.perf_counter()
        with span("tcube.answer", slices_touched=b1 - b0,
                  reduced_levels=levels):
            brushed = int(round(self.bucket_counts[b0:b1].sum()))
            if levels:
                estimate, lower, upper, in_viewport = self._answer_reduced(
                    fragments, query, viewport, levels, b0, b1)
            else:
                estimate, lower, upper = self._answer_rows(
                    fragments, query, b0, b1)
                in_viewport = brushed
        stats = {
            "points_total": int(self.stats.get("points_total", brushed)),
            "points_after_filter": brushed,
            "points_in_viewport": in_viewport,
            "time_polygon_pass_s": 0.0,
            "time_point_pass_s": 0.0,
            "time_join_s": time.perf_counter() - t0,
            "interior_fragments": fragments.num_interior_fragments,
            "boundary_fragments": fragments.num_boundary_fragments,
            "canvas_pixels": viewport.num_pixels,
            "epsilon_world_units": epsilon_for_viewport(viewport),
            "tcube": {
                "slices": self.num_buckets,
                "slices_touched": b1 - b0,
                "slice_range": [b0, b1],
                "bucket_seconds": self.bucket_seconds,
                "active_pixels": self.num_active_pixels,
                "memory_bytes": self.memory_bytes(),
                "reduced_levels": levels,
            },
        }
        return AggregationResult(
            regions=regions,
            values=estimate,
            method="tcube-raster-join",
            lower=lower,
            upper=upper,
            exact=False,
            stats=stats,
        )

    def _answer_rows(self, fragments: FragmentTable,
                     query: SpatialAggregation, b0: int, b1: int) -> tuple:
        """(estimate, lower, upper) as differences of the prefix-gathered
        join rows at the cube's own viewport (see :class:`_RunRows`)."""
        kinds = {COUNT: ("count",), SUM: ("sum",), AVG: ("sum", "count")}[
            query.agg]
        signed = query.agg == SUM and not self.nonnegative_values
        mass = "mass" if signed else kinds[0]
        wanted = [(f, k) for f in ("full", "covered") for k in kinds]
        if query.agg != AVG:
            wanted += [("covered", mass), ("partial", mass)]
        rows = self._run_rows(fragments).fill(
            self.prefix, [(f, k, b) for f, k in wanted for b in (b0, b1)])

        def brushed(kind, *families):
            edge = [sum(rows[f, kind, b] for f in families) for b in (b0, b1)]
            return edge[1] - edge[0]

        if query.agg == AVG:  # same nan-for-empty convention as the join
            counts = brushed("count", "full", "covered")
            with np.errstate(divide="ignore", invalid="ignore"):
                estimate = brushed("sum", "full", "covered") / counts
            estimate[counts == 0] = np.nan
            return estimate, None, None
        estimate = brushed(kinds[0], "full", "covered")
        mass_in = brushed(mass, "covered")
        mass_out = brushed(mass, "partial") - mass_in
        return estimate, estimate - mass_in, estimate + mass_out

    def _answer_reduced(self, fragments: FragmentTable,
                        query: SpatialAggregation, viewport: Viewport,
                        levels: int, b0: int, b1: int) -> tuple:
        """The pyramid-coarsened brush: slice-difference the count
        canvas, 2x2-reduce it ``levels`` times, crop it to ``viewport``,
        then run the ordinary gather join + boundary-mass bounds there.
        Returns (estimate, lower, upper, points in ``viewport``).

        Count planes hold small integers, so the pairwise reduction is
        exact — the answer is bitwise-equal to re-scattering the brushed
        points at the coarse viewport, and the cropped canvas's total is
        exactly the brushed points inside the query window.  O(pixels)
        per brush rather than the O(regions) row difference, but still
        point-count-free.
        """
        if query.agg != COUNT:
            raise QueryError(
                "pyramid-reduced tcube answers serve COUNT only; "
                f"got {query.agg!r}")
        canvas = self.range_canvas("count", b0, b1).reshape(
            self.viewport.height, self.viewport.width)
        for __ in range(levels):
            canvas = reduce2x2(canvas, "sum")
        # Crop to the query window: reduced pixel (j, i) is absolute
        # coarse pixel (cube.row0 / scale + j, cube.col0 / scale + i),
        # and reduce_levels_for guaranteed the query window lies inside.
        scale = 1 << levels
        offx = viewport.col0 - self.viewport.col0 // scale
        offy = viewport.row0 - self.viewport.row0 // scale
        canvas = canvas[offy:offy + viewport.height,
                        offx:offx + viewport.width]
        flat = np.ascontiguousarray(canvas).ravel()
        return (*join_with_bounds(fragments, {"count": flat}, COUNT),
                int(flat.sum()))


class _RunRows:
    """Per-region gathers of prefix rows over one fragment table's runs,
    filled lazily, one (run family, kind, bucket) row at a time: the
    gather join is *linear* in the canvas, so a brush is a difference of
    two gathered prefix rows per run family.  Each family's runs are
    mapped once to ranges of active columns (runs over no active pixel
    drop out) and prepared as one :func:`~repro.raster.canvas.run_gather`,
    so a row costs one gather.  Only the rows a brush touches are ever
    gathered.
    """

    def __init__(self, fragments: FragmentTable, active: np.ndarray):
        # A strong reference: the cube keys memos by id(fragments).
        self.fragments = fragments
        self.active = active
        self.gathers: dict = {}
        self.rows: dict[tuple, np.ndarray] = {}

    def fill(self, prefix: dict, keys: list) -> dict:
        """The memo, with every ``(family, kind, bucket)`` row of
        ``keys`` gathered; the misses (and the first miss's column
        mapping) are one ``tcube.rows`` span."""
        missing = list(dict.fromkeys(k for k in keys if k not in self.rows))
        if not missing:
            return self.rows
        n = self.fragments.num_polygons
        with span("tcube.rows", rows=len(missing)):
            if not self.gathers:
                # Active pixels before each pixel id, so a run's first
                # and stop columns are two lookups.
                before = np.zeros(self.fragments.viewport.num_pixels + 1,
                                  dtype=np.int64)
                before[self.active + 1] = 1
                np.cumsum(before, out=before)
                gathers = {}
                for family in ("full", "covered", "partial"):
                    starts, lengths, polys = \
                        self.fragments.intervals.runs(family)
                    lo, hi = before[starts], before[starts + lengths]
                    keep = hi > lo
                    gathers[family] = run_gather(
                        len(self.active), lo[keep], hi[keep], polys[keep],
                        n, order=np.argsort(lo[keep]))
                self.gathers = gathers
            for family, kind, b in missing:
                self.rows[family, kind, b] = self.gathers[family](
                    prefix[kind][b], np.add, 0.0)
        return self.rows


def build_temporal_canvas_cube(
    table,
    viewport: Viewport,
    time_column: str,
    bucket_seconds: int,
    value_column: str | None = None,
    residual_filters=(),
) -> TemporalCanvasCube:
    """Bucket, scatter, and prefix-sum a table into a cube.

    The point pass is :mod:`repro.core.pipeline`'s: ``table`` — a point
    table or a source over one; the ``tcube-raster`` backend passes the
    engine's :class:`~repro.core.pipeline.TableSource`, so a grid
    viewport reads the cached pixel columns — is filtered and projected
    into ``viewport``, and each point folds into its (bucket, active
    pixel) cell.  The bucket grid starts at ``tmin // bucket_seconds *
    bucket_seconds``.  A ``mass`` plane is stored only when the source
    cannot prove the values non-negative, the rule the bounded canvases
    use.
    """
    t_start = time.perf_counter()
    bucket_seconds = int(bucket_seconds)
    if bucket_seconds < 1:
        raise QueryError("bucket_seconds must be >= 1")
    source = as_source(table)
    residual_filters = tuple(residual_filters)
    query = SpatialAggregation(COUNT if value_column is None else SUM,
                               value_column, residual_filters)

    with span("tcube.build") as sp:
        with source.span():
            (table, rows), = source.chunks(query)  # in memory: one chunk
            col = table.column(time_column)
            if col.kind != TIMESTAMP:
                raise QueryError(
                    f"{time_column!r} is not a timestamp column (kind "
                    f"{col.kind!r})")
            rows, pix, values = project(table, rows, query, Window(viewport),
                                        source.pixel_columns(viewport))
            tvals = col.values if rows is None else col.values[rows]
            origin = (int(tvals.min()) // bucket_seconds * bucket_seconds
                      if len(tvals) else None)
            buckets = ((tvals - (origin or 0))
                       // bucket_seconds).astype(np.int64)
            num_buckets = int(buckets.max()) + 1 if len(buckets) else 0
            if num_buckets > MAX_TCUBE_SLICES:
                raise CubeError(
                    f"{num_buckets} time slices exceed the cube cap "
                    f"{MAX_TCUBE_SLICES}; use a coarser bucket")
            active, columns = dense_rank(pix, viewport.num_pixels)
            width = int(len(active))
            kinds = ["count"]
            if value_column is not None:
                kinds += (["sum"] if source.nonnegative(query)
                          else ["sum", "mass"])
            estimated = len(kinds) * (num_buckets + 1) * width * 8
            if estimated > MAX_TCUBE_BYTES:
                raise CubeError(
                    f"cube would need ~{estimated // (1024 * 1024)} MB "
                    f"(cap {MAX_TCUBE_BYTES // (1024 * 1024)} MB); use a "
                    f"coarser bucket")
            # Fold bucket b into row b + 1 of the plane itself; row 0
            # stays the zero prefix, so no separate delta array is held.
            # Each cell folds its points in point order, and np.add.at
            # into zeros equals np.bincount in element order, so the rows
            # are the per-bucket bincounts bit for bit.
            canvases = new_canvases(source, query, kinds,
                                    (num_buckets + 1) * width)
            fold(canvases, (buckets + 1) * width + columns, values)
            prefix = {kind: canvas.reshape(num_buckets + 1, width)
                      for kind, canvas in canvases.items()}
        with span("tcube.prefix"):
            for plane in prefix.values():
                # Row-by-row adds in place: row b + 1 holds bucket b's
                # delta until it becomes prefix[b] + delta[b], the same
                # operands as np.cumsum(axis=0) without its strided
                # column walk.
                for b in range(num_buckets):
                    np.add(plane[b], plane[b + 1], out=plane[b + 1])
                plane.flags.writeable = False
            cube = TemporalCanvasCube(
                viewport=viewport, time_column=time_column,
                bucket_seconds=bucket_seconds, origin=origin,
                active_pixels=active, prefix=prefix,
                value_column=value_column,
                residual_filters=residual_filters,
                stats={
                    "points_total": len(source.table),
                    "points_in_cube": int(len(pix)),
                    "buckets": num_buckets,
                    "active_pixels": width,
                })
        sp.set(points=len(pix), buckets=num_buckets, active_pixels=width)
    cube.stats["build_s"] = time.perf_counter() - t_start
    return cube


# -- cube selection ------------------------------------------------------------


def find_answering_cube(ctx, table: PointTable, query: SpatialAggregation,
                        viewport: Viewport) -> TemporalCanvasCube | None:
    """The earliest-inserted cached cube that can answer (peek only, no
    LRU touch): :meth:`~repro.core.cache.QueryCache.family` lists a
    table's cubes in insertion order, not recency order."""
    for cube in ctx.cached_tcubes(table):
        if cube is not None and cube.can_answer(query, viewport):
            return cube
    return None


def cube_for_brush(ctx, table: PointTable, query: SpatialAggregation,
                   viewport: Viewport):
    """Which cube serves this brush — the one selection rule.

    Returns the cached :class:`TemporalCanvasCube` that answers
    ``query`` at ``viewport``; else the build spec (the
    :attr:`TemporalCanvasCube.spec` tuple) of the cube one build within
    :data:`MAX_TCUBE_SLICES` / :data:`MAX_TCUBE_BYTES` would make; else
    None (re-scatter instead).  Cheap — it never scatters.  The
    session's brush gate and the ``tcube-raster`` backend both ask it.
    """
    if query.agg not in TCUBE_AGGREGATES:
        return None
    tr, residual = split_time_filter(query)
    if tr is None or not table.has_column(tr.column) or \
            table.column(tr.column).kind != TIMESTAMP:
        return None
    value_column = None if query.agg == COUNT else query.value_column
    if value_column is not None and (
            not table.has_column(value_column)
            or table.column(value_column).kind == "categorical"):
        return None
    cube = find_answering_cube(ctx, table, query, viewport)
    if cube is not None:
        return cube
    extent = as_source(table, ctx).extent(tr.column)
    if extent is None:
        bucket = max(1, int(tr.end) - int(tr.start))
    else:
        tmin, tmax = extent
        bucket = infer_bucket_seconds(tr.start, tr.end, tmin, tmax)
        if bucket is None:
            return None
        num_buckets = (tmax - tmin // bucket * bucket) // bucket + 1
        planes = 1 if value_column is None else 2
        bound_active = min(len(table), viewport.num_pixels)
        if planes * (num_buckets + 1) * bound_active * 8 > MAX_TCUBE_BYTES:
            return None
    return (viewport, tr.column, int(bucket), value_column, residual)
