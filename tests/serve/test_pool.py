"""ServeWorkerPool: routed workers, sharded caches, global admission."""

from __future__ import annotations

import asyncio

import numpy as np
import pytest

from repro.core import SpatialAggregation
from repro.serve import QueryService
from repro.serve.pool import ServeWorkerPool, clone_engine
from repro.table import F

from .test_service import make_req


@pytest.fixture()
def pool_service(manager):
    svc = QueryService(manager, max_concurrency=4, max_queue=8,
                       max_wait_s=5.0, shards=3)
    yield svc
    svc.close()


QUERIES = [
    SpatialAggregation.count(),
    SpatialAggregation.sum_of("fare"),
    SpatialAggregation.avg_of("fare"),
    SpatialAggregation.min_of("fare"),
    SpatialAggregation.max_of("fare"),
    SpatialAggregation.sum_of("fare", F("fare") > 5),
    SpatialAggregation.count(F("fare") > 1),
    SpatialAggregation.count(F("fare") > 2),
]


class TestPoolConstruction:
    def test_worker_zero_is_the_manager_engine(self, pool_service):
        assert pool_service.workers.workers[0].engine \
            is pool_service.manager.engine

    def test_clones_share_config_not_caches(self, manager):
        engine = manager.engine
        clone = clone_engine(engine)
        assert clone is not engine
        assert clone.ctx.cache is not engine.ctx.cache
        assert clone.default_resolution == engine.default_resolution
        assert clone.ctx.cache.max_bytes == engine.ctx.cache.max_bytes

    def test_threads_spread_over_workers(self, manager):
        pool = ServeWorkerPool(manager.engine, shards=3, total_threads=4)
        try:
            # ceil(4/3) = 2 threads each: the pool can always run at
            # least the admitted concurrency.
            assert all(w.executor._max_workers == 2 for w in pool.workers)
        finally:
            # Worker 0 wraps the shared manager engine; only the pool's
            # executors need shutting down.
            pool.close()

    def test_single_shard_pool_is_the_old_service(self, service):
        assert service.workers.shards == 1
        assert service.flight is service.workers.workers[0].flight
        assert service.pool is service.workers.workers[0].executor


class TestRoutedExecution:
    def test_results_match_single_shard_service(self, manager, service,
                                                pool_service):
        for query in QUERIES:
            solo = asyncio.run(service.execute(make_req(query)))
            pooled = asyncio.run(pool_service.execute(make_req(query)))
            assert np.array_equal(solo.values, pooled.values,
                                  equal_nan=True), query.kind

    def test_same_key_always_same_worker(self, pool_service):
        query = SpatialAggregation.count()
        key = pool_service.query_key(make_req(query))
        owner = pool_service.workers.worker_for(key)
        for _ in range(10):
            assert pool_service.workers.worker_for(key) is owner

    def test_repeat_hits_owning_workers_cache(self, pool_service):
        query = SpatialAggregation.sum_of("fare")
        key = pool_service.query_key(make_req(query))
        worker = pool_service.workers.worker_for(key)
        asyncio.run(pool_service.execute(make_req(query)))
        hits = worker.engine.cache_stats()["hits"]
        asyncio.run(pool_service.execute(make_req(query)))
        assert worker.engine.cache_stats()["hits"] > hits

    def test_caches_shard_not_duplicate(self, pool_service):
        for query in QUERIES:
            asyncio.run(pool_service.execute(make_req(query)))
        workers = pool_service.workers.workers
        key_owner = {}
        for query in QUERIES:
            key = pool_service.query_key(make_req(query))
            key_owner[key] = pool_service.workers.worker_for(key).name
        # Each served key lives in exactly its owner's cache.
        for key, owner in key_owner.items():
            for worker in workers:
                cached = worker.engine.ctx.cache.get(key)
                if worker.name == owner:
                    assert cached is not None
                else:
                    assert cached is None
        # With 8 distinct queries over 3 workers, routing should have
        # used more than one worker.
        assert len(set(key_owner.values())) > 1

    def test_worker_query_counters(self, pool_service):
        for query in QUERIES:
            asyncio.run(pool_service.execute(make_req(query)))
        stats = pool_service.stats()
        per_worker = [w["queries"] for w in stats["pool"]["workers"]]
        assert sum(per_worker) == len(QUERIES)


class TestAggregateStats:
    def test_stats_payload_shape(self, pool_service):
        asyncio.run(pool_service.execute(
            make_req(SpatialAggregation.count())))
        stats = pool_service.stats()
        pool = stats["pool"]
        assert pool["shards"] == 3
        assert len(pool["workers"]) == 3
        for worker in pool["workers"]:
            assert {"name", "queries", "coalesce", "cache_entries",
                    "cache_bytes", "cache_hits",
                    "cache_misses"} <= set(worker)

    def test_cache_stats_sum_across_workers(self, pool_service):
        for query in QUERIES:
            asyncio.run(pool_service.execute(make_req(query)))
            asyncio.run(pool_service.execute(make_req(query)))
        aggregate = pool_service.workers.aggregate_cache_stats()
        per_worker = [w.engine.cache_stats()
                      for w in pool_service.workers.workers]
        for field in ("entries", "bytes", "hits", "misses"):
            assert aggregate[field] == sum(s[field] for s in per_worker)
        lookups = aggregate["hits"] + aggregate["misses"]
        assert aggregate["hit_rate"] == aggregate["hits"] / lookups

    def test_coalesce_stats_sum_across_workers(self, pool_service):
        asyncio.run(pool_service.execute(
            make_req(SpatialAggregation.count())))
        aggregate = pool_service.workers.aggregate_coalesce_stats()
        solo = pool_service.workers.workers[0].flight.stats()
        assert set(solo) <= set(aggregate)


class TestGlobalAdmission:
    def test_overload_sheds_across_the_pool(self, manager):
        """One global controller: slots do not fragment per worker."""
        from repro.errors import OverloadedError

        svc = QueryService(manager, max_concurrency=1, max_queue=1,
                           max_wait_s=0.05, shards=3)
        try:
            async def burst():
                reqs = [make_req(q, cache=False) for q in QUERIES]
                return await asyncio.gather(
                    *(svc.execute(r) for r in reqs),
                    return_exceptions=True)

            results = asyncio.run(burst())
            shed = [r for r in results if isinstance(r, OverloadedError)]
            served = [r for r in results
                      if not isinstance(r, BaseException)]
            assert served, "at least one query must get the slot"
            assert shed, "a one-deep queue must shed most of the burst"
            assert svc.admission.stats()["shed_total"] == len(shed)
        finally:
            svc.close()
