"""The execution facade.

:class:`SpatialAggregationEngine` is the public entry point a front end
like Urbane talks to.  Since the multi-layer refactor it is a thin
facade over three explicit layers:

* the **backend registry** (:mod:`repro.core.backends`) — every
  strategy (raster variants, grid index join, naive scan, data cube)
  behind one :class:`~repro.core.backends.Backend` interface, resolved
  by name with no if/elif dispatch;
* the **cost-based planner** (:mod:`repro.core.planner`) —
  ``method="auto"`` prices the capability-eligible backends from table/
  region statistics, the requested precision, and cache state, and
  records the decision in ``result.stats["plan"]``;
* the **unified cache** (:mod:`repro.core.cache`, owned by the
  :class:`~repro.core.context.ExecutionContext`) — fragment tables,
  point indexes, and cubes keyed by content fingerprints with LRU
  eviction, byte accounting, and hit/miss counters surfaced in
  ``result.stats["cache"]``.

Above them sits the **answer tier**: a repeated request returns the
stored answer's frozen arrays without planning, assembly or gather.
"""

from __future__ import annotations

import time

from ..errors import GeometryError, QueryCancelled, QueryError
from ..obs.trace import span
from ..raster import FragmentTable, Viewport
from ..table import PointTable
from .backends import ExecutionPlan, backend_names, get_backend, has_backend
from .cache import fingerprint
from .context import (
    DEFAULT_RESOLUTION,
    MAX_CANVAS_RESOLUTION,
    ExecutionContext,
)
from .planner import CostBasedPlanner
from .query import SpatialAggregation
from .regions import RegionSet
from .result import AggregationResult

#: The built-in methods: ``auto`` plus every backend registered when
#: :mod:`repro.core.backends` was imported.  Custom backends registered
#: later via :func:`repro.core.backends.register_backend` are accepted
#: too.
METHODS = ("auto",) + backend_names()


class SpatialAggregationEngine:
    """Facade over the registry, the planner, and the unified cache."""

    def __init__(self, default_resolution: int = DEFAULT_RESOLUTION,
                 max_canvas_resolution: int = MAX_CANVAS_RESOLUTION,
                 cache_max_bytes: int = 256 * 1024 * 1024,
                 cache_max_entries: int = 512,
                 planner: CostBasedPlanner | None = None,
                 parallel=None,
                 workers: int | None = None,
                 kernel: str = "auto"):
        # ``parallel`` (a retired ParallelConfig) and ``workers`` are
        # accepted and ignored: the engine runs in one process.  They go
        # with the frozen benchmark probes that still pass them
        # (ROADMAP item 3).
        self.ctx = ExecutionContext(
            default_resolution=default_resolution,
            max_canvas_resolution=max_canvas_resolution,
            cache_max_bytes=cache_max_bytes,
            cache_max_entries=cache_max_entries,
            kernel=kernel)
        self.planner = planner or CostBasedPlanner()

    # -- configuration passthrough ----------------------------------------

    @property
    def default_resolution(self) -> int:
        return self.ctx.default_resolution

    @property
    def max_canvas_resolution(self) -> int:
        return self.ctx.max_canvas_resolution

    # -- cache facade ------------------------------------------------------

    def fragments_for(self, regions: RegionSet,
                      viewport: Viewport) -> FragmentTable:
        """The (cached) polygon render pass for a region set + viewport."""
        return self.ctx.fragments_for(regions, viewport)

    def clear_caches(self) -> None:
        self.ctx.cache.clear()

    def cache_stats(self) -> dict:
        """Unified-cache counters: hits, misses, evictions, bytes."""
        return self.ctx.cache.stats()

    # -- planning ----------------------------------------------------------

    def plan_viewport(self, regions: RegionSet, resolution: int | None,
                      epsilon: float | None) -> Viewport:
        """Resolve the canvas for a query (epsilon wins over resolution)."""
        return self.ctx.plan_viewport(regions, resolution, epsilon)

    def plan_grid_viewport(self, regions: RegionSet,
                           resolution: int | None = None,
                           epsilon: float | None = None):
        """Like :meth:`plan_viewport`, pinned to a canvas grid so
        pan/zoom gestures reuse cached pyramid blocks."""
        return self.ctx.plan_grid_viewport(regions, resolution, epsilon)

    # -- execution ---------------------------------------------------------

    def execute(
        self,
        table: PointTable,
        regions: RegionSet,
        query: SpatialAggregation,
        method: str = "auto",
        resolution: int | None = None,
        epsilon: float | None = None,
        exact: bool = False,
        viewport: Viewport | None = None,
        deadline_ms: float | None = None,
        cancel=None,
        cache: bool = True,
    ) -> AggregationResult:
        """Run one spatial aggregation query.

        ``method='auto'`` routes through the cost-based planner; any
        registered backend name runs that backend directly (the
        benchmark harness does this).  ``deadline_ms`` enables
        deadline-aware planning: if the cost model predicts a miss, the
        planner degrades the plan (exact -> bounded, then a coarser
        canvas) and records it in ``stats["plan"]["degraded"]``.
        ``cancel`` is a ``threading.Event``-like token checked before
        dispatch, between tiles on the tiled paths and before each
        chunk of a point pass — so between partitions on every store
        scan; once set the query raises
        :class:`~repro.errors.QueryCancelled`.  Every
        result carries ``stats["plan"]`` (the decision and its inputs)
        and ``stats["cache"]`` (unified-cache counters, including this
        query's own hits/misses).

        A request answered before (same data, regions, query, method as
        requested and knobs; every answer is stored on first sight) is
        an answer-tier hit: read-only arrays, ``stats["answer"]`` and no
        work counters.  ``cache=False`` neither reads nor writes it.
        """
        t0 = time.perf_counter()
        if resolution is not None and resolution < 1:
            # Fail loudly whichever backend the plan lands on.
            raise GeometryError(
                f"resolution must be positive, got {resolution}")
        key = None
        if cache:
            key = self.answer_key(table, regions, query, method, resolution,
                                  epsilon, exact, deadline_ms, viewport)
            hit = self.stored_answer(key)
            if hit is not None:
                return hit
        plan = ExecutionPlan(
            table=table, regions=regions, query=query, method=method,
            resolution=resolution, epsilon=epsilon, exact=exact,
            viewport=viewport, deadline_ms=deadline_ms, cancel=cancel)

        # Out-of-core datasets take the partition-streamed store path;
        # imported lazily so repro.core never depends on repro.store at
        # module load (store's execution imports core's kernels).
        from ..store.dataset import Dataset

        if isinstance(table, Dataset):
            from ..store.execute import execute_dataset

            if cancel is not None and cancel.is_set():
                raise QueryCancelled("query cancelled before dispatch")
            hits0, misses0 = self.ctx.cache.hits, self.ctx.cache.misses
            blocks0 = self.ctx.cache.block_snapshot()
            with span("store.execute") as s:
                result = execute_dataset(self.ctx, plan, method=method)
            s.set(rows=result.stats.get("points_after_filter"))
            self._attach_stats(result, plan, hits0, misses0, blocks0, t0)
            self._store_answer(key, result)
            return result

        if method == "auto":
            with span("plan") as s:
                chosen = self.planner.choose(self.ctx, plan)
            s.set(chosen=chosen)
        else:
            if not has_backend(method):
                raise QueryError(
                    f"unknown method {method!r}; expected one of "
                    f"{('auto',) + backend_names()}")
            chosen = method
            plan.decision = {
                "inputs": self.planner.plan_inputs(self.ctx, plan),
                "decision": {"chosen": chosen, "planned": False},
                "degraded": None,
            }

        if cancel is not None and cancel.is_set():
            raise QueryCancelled("query cancelled before dispatch")
        hits0, misses0 = self.ctx.cache.hits, self.ctx.cache.misses
        blocks0 = self.ctx.cache.block_snapshot()
        with span("backend.run", backend=chosen):
            result = get_backend(chosen).run(self.ctx, plan)
        self._attach_stats(result, plan, hits0, misses0, blocks0, t0)
        if plan.decision.get("decision", {}).get("planned"):
            # Feed the observed latency back into the planner's
            # units-per-second calibration for future deadline checks.
            cost = plan.decision["decision"]["costs"].get(chosen)
            if cost is not None and cost != float("inf"):
                self.planner.observe(cost, time.perf_counter() - t0)
        self._store_answer(key, result)
        return result

    def answer_key(self, table: PointTable, regions: RegionSet,
                   query: SpatialAggregation, method: str = "auto",
                   resolution: int | None = None,
                   epsilon: float | None = None, exact: bool = False,
                   deadline_ms: float | None = None,
                   viewport: Viewport | None = None) -> tuple:
        """The answer-tier key of an :meth:`execute` call with these
        arguments: content fingerprints of the data, the query's repr,
        the method as requested and every knob that can change the
        answer."""
        return ("answer", fingerprint(table), fingerprint(regions),
                repr(query), method, resolution, epsilon, exact,
                deadline_ms, viewport)

    def stored_answer(self, key: tuple) -> AggregationResult | None:
        """The stored answer for ``key`` in a result of this call's own
        (read-only arrays, ``stats["answer"]``), or None on a miss.

        Does no planning or execution and holds the cache lock only
        briefly, so a caller may probe from any thread.
        """
        if key not in self.ctx.cache:  # a miss's trace stays span-free
            return None
        t0 = time.perf_counter()
        with span("answer.hit"):
            hits0, misses0 = self.ctx.cache.hits, self.ctx.cache.misses
            blocks0 = self.ctx.cache.block_snapshot()
            stored = self.ctx.cache.get(key)
            if stored is None:  # evicted since the probe
                return None
            result = stored.shared({**stored.stats, "answer": {"hit": True}})
            self._attach_cache(result, hits0, misses0, blocks0, t0)
        return result

    def _store_answer(self, key: tuple | None,
                      result: AggregationResult) -> None:
        """Cache ``result``'s frozen arrays under ``key``, with the stats
        that describe the answer; a hit drops the work counters."""
        if key is not None:
            self.ctx.cache.put(key, result.shared({
                k: result.stats[k] for k in
                ("plan", "points_in_viewport", "points_after_filter")
                if k in result.stats}))

    def _attach_stats(self, result: AggregationResult, plan: ExecutionPlan,
                      hits0: int, misses0: int, blocks0: dict,
                      t0: float) -> None:
        result.stats["plan"] = plan.decision
        if isinstance(plan.decision, dict):
            # Which compiled-kernel implementation ran the hot loops —
            # every path (planned, explicit, store, multi) goes through
            # here, so the selection is visible on every result.
            plan.decision["kernel"] = self.ctx.kernel_info()
        self._attach_cache(result, hits0, misses0, blocks0, t0)

    def _attach_cache(self, result: AggregationResult, hits0: int,
                      misses0: int, blocks0: dict, t0: float) -> None:
        cache = self.ctx.cache.stats()
        cache["query_hits"] = self.ctx.cache.hits - hits0
        cache["query_misses"] = self.ctx.cache.misses - misses0
        # Per-query block-tier reuse: the delta of the global ledger
        # over this execution (zeros when the query never touched the
        # pyramid path).
        blocks1 = self.ctx.cache.block_snapshot()
        delta = {k: blocks1[k] - blocks0[k] for k in blocks1}
        pixels = delta["assembled_pixels"] + delta["scattered_pixels"]
        delta["reuse_fraction"] = (delta["assembled_pixels"] / pixels
                                   if pixels else 0.0)
        cache["blocks"] = delta
        result.stats["cache"] = cache
        result.stats["time_execute_s"] = time.perf_counter() - t0

    def execute_multi(
        self,
        table: PointTable,
        regions: RegionSet,
        queries: list[SpatialAggregation],
        resolution: int | None = None,
        epsilon: float | None = None,
        viewport: Viewport | None = None,
    ) -> list[AggregationResult]:
        """Evaluate several aggregates in shared render passes.

        Queries with identical filter lists share the filter mask and
        point projection (the GPU's multiple-render-targets trick);
        results align with ``queries``.  Bounded variant only.
        """
        from .multipass import bounded_raster_join_multi

        t0 = time.perf_counter()
        hits0, misses0 = self.ctx.cache.hits, self.ctx.cache.misses
        blocks0 = self.ctx.cache.block_snapshot()
        if viewport is None:
            viewport = self.plan_viewport(regions, resolution, epsilon)
        fragments = self.ctx.fragments_for(regions, viewport)
        results = bounded_raster_join_multi(table, regions, queries,
                                            viewport, fragments=fragments)
        for query, result in zip(queries, results):
            plan = ExecutionPlan(
                table=table, regions=regions, query=query,
                method="bounded", resolution=resolution, epsilon=epsilon,
                viewport=viewport,
                decision={"inputs": None,
                          "decision": {"chosen": "bounded",
                                       "planned": False,
                                       "multi": len(queries)},
                          "degraded": None})
            self._attach_stats(result, plan, hits0, misses0, blocks0, t0)
        return results

    def compare(
        self,
        table: PointTable,
        regions: RegionSet,
        query: SpatialAggregation,
        methods: tuple[str, ...] = ("bounded", "accurate", "grid"),
        resolution: int | None = None,
        epsilon: float | None = None,
        exact: bool = False,
        viewport: Viewport | None = None,
    ) -> dict[str, AggregationResult]:
        """Run the same query through several backends (harness helper).

        Threads the full kwarg set through, so each method runs exactly
        the plan the engine would run for it.
        """
        return {
            m: self.execute(table, regions, query, method=m,
                            resolution=resolution, epsilon=epsilon,
                            exact=exact, viewport=viewport)
            for m in methods
        }
