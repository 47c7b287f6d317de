"""The query service: engine execution behind admission + coalescing.

:class:`QueryService` is the asyncio-facing seam between the HTTP
layer and the (synchronous, NumPy-bound) engine.  Each request flows
through these stages:

1. **Stored answers** — a request whose answer the engine's answer
   tier holds (a query seen before, same data and knobs) is
   answered on the event loop, before coalescing, admission and the
   pool: it does no work, so it is never shed.  The ``cache`` knob set
   to false skips the probe.
2. **Admission** (:mod:`repro.serve.admission`) — a bounded queue in
   front of a concurrency semaphore sized to the thread pool; overload
   sheds with ``retry_after_ms`` instead of queueing without bound.
3. **Coalescing** (:mod:`repro.serve.coalesce`) — requests with the
   same key (:meth:`QueryService.query_key`, the engine's answer-tier
   key) share one execution; every participant gets the answer's
   read-only arrays under a stats dict of its own
   (``result.shared``), so no response can write into another.
4. **Execution** — the manager's one engine runs on a thread pool
   (the event loop never blocks on NumPy).  Every query shares the
   engine's fragments, tcube cubes and pyramid blocks, and the
   engine stores an answer on its key's first sighting; the
   ``cache`` knob set to false bypasses the answer tier.
5. **Streaming** (:meth:`QueryService.stream`) — long queries route
   through the progressive tiled join and yield per-tile partials with
   hard error bounds as they accumulate.

Cancellation is cooperative end to end: a disconnected client cancels
its handler task, the single-flight refcount drops, and when the last
participant is gone the flight's ``threading.Event`` stops the engine
between tiles.
"""

from __future__ import annotations

import asyncio
import threading
import time
from concurrent.futures import ThreadPoolExecutor

from ..core.tiling import iter_tiled_partials
from ..errors import ProtocolError
from ..obs import REGISTRY, SlowQueryLog, Tracer, record_query_stats
from ..obs.trace import activate, current_span, span
from ..urbane.datamanager import DataManager
from .admission import AdmissionController
from .coalesce import SingleFlight

#: Sentinel closing a streaming queue.
_DONE = object()


class QueryService:
    """Admission-controlled, coalescing front end over a DataManager.

    One engine (``manager.engine``), one coalescing map and one thread
    pool of ``max_concurrency`` threads serve every request.
    """

    def __init__(self, manager: DataManager,
                 max_concurrency: int = 4,
                 max_queue: int = 16,
                 max_wait_s: float = 10.0,
                 default_deadline_ms: float | None = None,
                 slow_query_ms: float | None = None,
                 trace_retain: int = 64):
        self.manager = manager
        self.admission = AdmissionController(
            max_concurrency=max_concurrency, max_queue=max_queue,
            max_wait_s=max_wait_s)
        self.default_deadline_ms = default_deadline_ms
        self.flight = SingleFlight()
        self.executor = ThreadPoolExecutor(
            max_workers=max_concurrency, thread_name_prefix="repro-query")
        self.queries = 0
        self.stream_queries = 0
        self.errors = 0
        # Observability: a ring buffer of recent request traces and a
        # threshold-gated slow-query log.  Tracing stays off unless a
        # request asks for it or the slow-query log needs every request
        # timed; the span fast path makes the quiet case near-free.
        self.tracer = Tracer(retain=trace_retain)
        self.slowlog = SlowQueryLog(threshold_ms=slow_query_ms)

    # -- keys --------------------------------------------------------------

    def query_key(self, req: dict) -> tuple:
        """The identity of a request: the engine's answer-tier key of
        the call :meth:`_run` makes, so one key both coalesces a
        request and probes for its stored answer.

        Nothing identifies the client, so identical gestures from
        different sessions coalesce and share stored answers.
        """
        query = req["query"]
        if query is None:
            raise ProtocolError("request has no parsed query")
        return self.manager.engine.answer_key(
            self.manager.dataset(req["dataset"]),
            self.manager.region_set(req["regions"]), query,
            method=req["method"], resolution=req["resolution"],
            epsilon=req["epsilon"], exact=bool(req["exact"]),
            deadline_ms=self._deadline_ms(req),
            viewport=req.get("viewport"))

    def _deadline_ms(self, req: dict) -> float | None:
        if req["deadline_ms"] is None:
            return self.default_deadline_ms
        return req["deadline_ms"]

    # -- one-shot queries --------------------------------------------------

    def _parse_sql(self, req: dict) -> None:
        """Resolve a ``sql`` request into dataset/regions/query fields."""
        from ..core.sql import parse_query

        parsed = parse_query(req["sql"])
        req["dataset"] = req["dataset"] or parsed.table
        req["regions"] = req["regions"] or parsed.regions
        req["query"] = parsed.aggregation

    def _run(self, req: dict, cancel: threading.Event, parent):
        """Engine execution (thread-pool side)."""
        table = self.manager.dataset(req["dataset"])
        regions = self.manager.region_set(req["regions"])
        # run_in_executor does not propagate contextvars, so the span
        # the flight runs under (when tracing) is handed over and
        # re-activated on this pool thread.
        with activate(parent), span("execute"):
            return self.manager.engine.execute(
                table, regions, req["query"], method=req["method"],
                resolution=req["resolution"], epsilon=req["epsilon"],
                exact=bool(req["exact"]), viewport=req.get("viewport"),
                deadline_ms=self._deadline_ms(req), cancel=cancel,
                cache=req.get("cache", True))

    async def execute(self, req: dict):
        """Serve one non-streaming request; returns an
        :class:`~repro.core.result.AggregationResult` with read-only
        arrays and a stats dict of its own.

        When the request asks for a trace (``trace`` knob) or the
        slow-query log is armed, the whole request runs under a root
        span: admission wait, coalesce join and execution all land in
        one tree, kept
        in the tracer's ring buffer under a ``request_id`` the client
        can fetch back via ``GET /v1/trace/<id>``.
        """
        traced = bool(req.get("trace")) or self.slowlog.enabled
        if not traced:
            return await self._execute(req)
        request_id = self.tracer.new_request_id()
        root = self.tracer.start("request", request_id=request_id)
        result = None
        try:
            with root:
                root.set(dataset=req.get("dataset") or req.get("sql"))
                result = await self._execute(req)
        finally:
            payload = root.to_dict()
            self.tracer.keep(request_id, payload)
            self.slowlog.note(
                request_id, root.wall_s * 1000.0, payload,
                summary={"dataset": req.get("dataset"),
                         "method": req.get("method")})
        # Only an explicit ``trace`` knob surfaces the reference in the
        # response stats — slowlog-armed tracing stays server-side.
        if req.get("trace"):
            result.stats["trace"] = {"request_id": request_id,
                                     "wall_ms": root.wall_s * 1000.0}
        return result

    async def _execute(self, req: dict):
        """Serve one non-streaming request; returns an
        :class:`~repro.core.result.AggregationResult` with read-only
        arrays and a stats dict of its own.

        A stored answer is served right here on the event loop: it
        takes no admission slot, no flight and no pool thread, so it is
        never shed.  Anything else coalesces *before* admission:
        joiners of an in-flight identical query never consume a slot
        (they do no work), so under a burst of identical requests the
        admission queue only sees distinct work.  A shed leader sheds
        its joiners with it — shared fate, shared ``retry_after``.
        """
        t0 = time.perf_counter()
        if req.get("sql"):
            self._parse_sql(req)
        self.queries += 1
        key = self.query_key(req)
        result = None
        if req.get("cache", True):
            result = self.manager.engine.stored_answer(key)
        if result is None:
            loop = asyncio.get_running_loop()

            async def start(cancel: threading.Event):
                async with self.admission.slot(req.get("timeout_s")):
                    return await loop.run_in_executor(
                        self.executor, self._run, req, cancel,
                        current_span())

            try:
                result = await self.flight.run(key, start)
            except Exception:
                self.errors += 1
                REGISTRY.counter("repro_errors_total").inc()
                raise
            # Each participant gets its own stats dict over the frozen
            # arrays — coalesced responses never write into one another.
            result = result.shared(dict(result.stats))
        # Metrics record once per *served response*: coalesced joiners
        # and stored answers each count, so registry totals reconcile
        # with summed per-response stats.
        record_query_stats(result.stats, time.perf_counter() - t0)
        return result

    # -- streaming queries -------------------------------------------------

    async def stream(self, req: dict):
        """Serve one progressive request: an async iterator of
        :class:`~repro.core.tiling.TilePartial` snapshots.

        Streaming runs are not coalesced (each client owns its pace and
        its cancel token) but still pass admission, so a flood of
        streamers sheds like everything else.
        """
        if req.get("sql"):
            self._parse_sql(req)
        async with self.admission.slot(req.get("timeout_s")):
            self.queries += 1
            self.stream_queries += 1
            table = self.manager.dataset(req["dataset"])
            regions = self.manager.region_set(req["regions"])
            if req["query"] is None:
                raise ProtocolError("request has no parsed query")
            resolution = (req["resolution"]
                          or self.manager.engine.default_resolution)
            cancel = threading.Event()
            loop = asyncio.get_running_loop()
            queue: asyncio.Queue = asyncio.Queue(maxsize=4)

            def produce():
                try:
                    for partial in iter_tiled_partials(
                            table, regions, req["query"], resolution,
                            tile_pixels=int(req["tile_pixels"]),
                            every=int(req["stream_every"]),
                            cancel=cancel):
                        asyncio.run_coroutine_threadsafe(
                            queue.put(partial), loop).result()
                    asyncio.run_coroutine_threadsafe(
                        queue.put(_DONE), loop).result()
                except BaseException as exc:  # noqa: BLE001 - forwarded
                    try:
                        asyncio.run_coroutine_threadsafe(
                            queue.put(exc), loop).result()
                    except RuntimeError:
                        pass  # loop already gone; nothing to notify

            future = loop.run_in_executor(self.executor, produce)
            try:
                while True:
                    item = await queue.get()
                    if item is _DONE:
                        break
                    if isinstance(item, BaseException):
                        self.errors += 1
                        REGISTRY.counter("repro_errors_total").inc()
                        raise item
                    yield item
            finally:
                # Consumer gone (disconnect) or exhausted: stop the
                # producer between tiles and drain so it can finish.
                cancel.set()
                while not future.done():
                    try:
                        queue.get_nowait()
                    except asyncio.QueueEmpty:
                        await asyncio.sleep(0.01)

    # -- introspection -----------------------------------------------------

    def stats(self) -> dict:
        cache = self.manager.engine.cache_stats()
        blocks = cache.get("blocks", {})
        return {
            "queries": self.queries,
            "stream_queries": self.stream_queries,
            "errors": self.errors,
            "admission": self.admission.stats(),
            "coalesce": self.flight.stats(),
            "cache": cache,
            # Lifetime pyramid block-tier reuse, surfaced at the top
            # level so operators see canvas reuse without digging into
            # the cache counters.
            "pyramid": {
                "block_hits": blocks.get("hits", 0),
                "block_derived": blocks.get("derived", 0),
                "block_misses": blocks.get("misses", 0),
                "reuse_fraction": blocks.get("reuse_fraction", 0.0),
            },
            "tracer": self.tracer.stats(),
            "slowlog": self.slowlog.stats(),
            "datasets": sorted(self.manager.dataset_names),
            "region_sets": self.manager.region_set_names,
            # Inert: the frozen serve-analysts workload still reads these
            # three counters.  Retire with the legacy bench shims
            # (ROADMAP item 3).  /v1/metrics does not export it.
            "speculate": {"observed": 0, "completed": 0, "hits": 0},
        }

    def close(self) -> None:
        self.executor.shutdown(wait=False, cancel_futures=True)
