"""The serve-worker pool: routed engines behind one admission gate.

A single :class:`~repro.serve.service.QueryService` used to own one
engine, one coalescing map and one thread pool; under multi-worker
load every hot structure was a contention point, and naively cloning
the whole service would *duplicate* the caches instead of scaling
them.  The pool takes the middle road the tentpole asks for:

* **one worker = one engine** — its unified cache (results, tcube,
  pyramid blocks, fragments) and its :class:`SingleFlight` map are
  private, and because routing is consistent-hash on the query
  fingerprint, each cache holds its *shard* of the keyspace exactly
  once across the pool;
* **routing** — :class:`~repro.serve.routing.HashRing` over worker
  names; the same key always lands on the same worker, so repeats are
  cache hits and concurrent identical requests coalesce on the one
  worker that owns them;
* **admission stays global** — the service's single
  :class:`~repro.serve.admission.AdmissionController` fronts the whole
  pool (slots aggregate across workers rather than fragmenting into
  per-worker quotas that could shed while siblings idle).

Worker 0 *is* the manager's engine, so a one-worker pool is exactly
the pre-pool service — same cache, same counters, same behavior.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor

from ..core.executor import SpatialAggregationEngine
from .coalesce import SingleFlight
from .routing import HashRing


def clone_engine(engine: SpatialAggregationEngine
                 ) -> SpatialAggregationEngine:
    """A fresh engine with ``engine``'s configuration and empty caches."""
    ctx = engine.ctx
    return SpatialAggregationEngine(
        default_resolution=ctx.default_resolution,
        max_canvas_resolution=ctx.max_canvas_resolution,
        cache_max_bytes=ctx.cache.max_bytes,
        cache_max_entries=ctx.cache.max_entries)


class ServeWorker:
    """One pool member: a private engine, flight map and thread pool."""

    def __init__(self, name: str, engine: SpatialAggregationEngine,
                 threads: int):
        self.name = name
        self.engine = engine
        self.flight = SingleFlight()
        self.executor = ThreadPoolExecutor(
            max_workers=threads, thread_name_prefix=f"repro-{name}")
        self.queries = 0

    def stats(self) -> dict:
        cache = self.engine.cache_stats()
        return {
            "name": self.name,
            "queries": self.queries,
            "coalesce": self.flight.stats(),
            "cache_entries": cache.get("entries", 0),
            "cache_bytes": cache.get("bytes", 0),
            "cache_hits": cache.get("hits", 0),
            "cache_misses": cache.get("misses", 0),
        }

    def close(self) -> None:
        self.executor.shutdown(wait=False, cancel_futures=True)


class ServeWorkerPool:
    """``shards`` workers behind a consistent-hash ring.

    ``total_threads`` is the service's aggregate concurrency; it is
    spread (ceiling division) over the workers' private thread pools so
    the pool as a whole can always run as many engine calls as the
    admission controller admits.
    """

    def __init__(self, template: SpatialAggregationEngine, shards: int,
                 total_threads: int, replicas: int = 64):
        shards = max(1, int(shards))
        threads = max(1, math.ceil(max(1, total_threads) / shards))
        self.workers: list[ServeWorker] = []
        for index in range(shards):
            engine = template if index == 0 else clone_engine(template)
            self.workers.append(
                ServeWorker(f"worker-{index}", engine, threads))
        self.ring = HashRing([w.name for w in self.workers],
                             replicas=replicas)
        self._by_name = {w.name: w for w in self.workers}

    @property
    def shards(self) -> int:
        return len(self.workers)

    def worker_for(self, key) -> ServeWorker:
        """The worker owning ``key`` — stable for the pool's lifetime."""
        return self._by_name[self.ring.node_for(key)]

    def stats(self) -> dict:
        return {
            "shards": self.shards,
            "replicas": self.ring.replicas,
            "workers": [w.stats() for w in self.workers],
        }

    def aggregate_cache_stats(self) -> dict:
        """Pool-wide cache counters in the single-cache payload shape.

        Numeric counters sum across workers; derived fractions are
        recomputed from the sums (a mean of ratios would overweight
        idle workers).
        """
        totals: dict = {}
        blocks: dict = {}
        for worker in self.workers:
            stats = worker.engine.cache_stats()
            for field, value in stats.items():
                if field == "blocks":
                    for bfield, bvalue in value.items():
                        if isinstance(bvalue, (int, float)):
                            blocks[bfield] = blocks.get(bfield, 0) + bvalue
                elif isinstance(value, (int, float)) and \
                        not isinstance(value, bool):
                    totals[field] = totals.get(field, 0) + value
        lookups = totals.get("hits", 0) + totals.get("misses", 0)
        totals["hit_rate"] = (totals.get("hits", 0) / lookups
                              if lookups else 0.0)
        pixels = (blocks.get("assembled_pixels", 0)
                  + blocks.get("scattered_pixels", 0))
        blocks["reuse_fraction"] = (
            blocks.get("assembled_pixels", 0) / pixels if pixels else 0.0)
        totals["blocks"] = blocks
        return totals

    def aggregate_coalesce_stats(self) -> dict:
        """Pool-wide flight counters (sums across per-worker maps)."""
        totals: dict = {}
        for worker in self.workers:
            for field, value in worker.flight.stats().items():
                if isinstance(value, (int, float)) and \
                        not isinstance(value, bool):
                    totals[field] = totals.get(field, 0) + value
        return totals

    def close(self) -> None:
        for worker in self.workers:
            worker.close()
