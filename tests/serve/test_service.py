"""QueryService: execution, coalescing, caching, streaming."""

import asyncio

import numpy as np
import pytest

from repro.core import SpatialAggregation
from repro.errors import QueryError
from repro.serve.protocol import decode_request, encode_request
from repro.table import F


def make_req(query=None, sql=None, **knobs):
    return decode_request(encode_request(
        "trips", "simple", query=query, sql=sql, **knobs))


class TestExecute:
    def test_matches_direct_engine_execution(self, manager, service,
                                             simple_regions):
        query = SpatialAggregation.sum_of("fare", F("fare") > 2)
        served = asyncio.run(service.execute(make_req(query)))
        direct = manager.engine.execute(
            manager.dataset("trips"), simple_regions, query)
        assert np.array_equal(served.values, direct.values)
        assert np.array_equal(served.lower, direct.lower)
        assert np.array_equal(served.upper, direct.upper)

    def test_each_caller_gets_independent_copy(self, service):
        query = SpatialAggregation.count()
        # The second request stores the answer; the third and fourth
        # are answer-tier hits over the same frozen arrays.
        for _ in range(2):
            asyncio.run(service.execute(make_req(query)))
        a = asyncio.run(service.execute(make_req(query)))
        b = asyncio.run(service.execute(make_req(query)))
        assert a is not b
        assert a.stats["answer"] == b.stats["answer"] == {"hit": True}
        with pytest.raises(ValueError):
            a.values[:] = -1
        a.stats["poison"] = True
        assert "poison" not in b.stats
        assert np.array_equal(a.values, b.values)

    def test_repeat_query_hits_cache_not_engine(self, service, monkeypatch):
        query = SpatialAggregation.count()
        for _ in range(2):  # first sighting, then built and stored
            asyncio.run(service.execute(make_req(query)))
        engine = service.manager.engine

        def fail(*_args):
            pytest.fail("an answer-tier hit planned or ran a backend")

        monkeypatch.setattr(engine.planner, "choose", fail)
        monkeypatch.setattr("repro.core.executor.get_backend", fail)
        before = engine.ctx.cache.stats()["hits"]
        hit = asyncio.run(service.execute(make_req(query)))
        assert hit.stats["answer"] == {"hit": True}
        assert engine.ctx.cache.stats()["hits"] > before

    def test_cache_false_bypasses_the_cache(self, service):
        query = SpatialAggregation.count()
        cache = service.manager.engine.ctx.cache
        for _ in range(3):
            off = asyncio.run(service.execute(make_req(query, cache=False)))
            assert "answer" not in off.stats
        assert not [k for k in cache.keys() if k[0] == "answer"]
        for _ in range(2):
            asyncio.run(service.execute(make_req(query)))
        assert [k for k in cache.keys() if k[0] == "answer"]
        off = asyncio.run(service.execute(make_req(query, cache=False)))
        assert "answer" not in off.stats

    def test_key_distinguishes_every_knob(self, service):
        query = SpatialAggregation.count()
        base = service.query_key(make_req(query))
        assert service.query_key(make_req(query)) == base
        variants = [
            make_req(query, method="naive"),
            make_req(query, resolution=64),
            make_req(query, epsilon=3.0),
            make_req(query, exact=True),
            make_req(query, deadline_ms=50.0),
            make_req(SpatialAggregation.sum_of("fare")),
        ]
        keys = {service.query_key(v) for v in variants}
        assert base not in keys
        assert len(keys) == len(variants)

    def test_key_applies_the_default_deadline(self, manager):
        from repro.serve import QueryService

        svc = QueryService(manager, default_deadline_ms=40.0)
        try:
            query = SpatialAggregation.count()
            assert (svc.query_key(make_req(query))
                    == svc.query_key(make_req(query, deadline_ms=40.0)))
        finally:
            svc.close()

    def test_traced_miss_nests_the_work_under_the_leaders_wait(
            self, service):
        served = asyncio.run(service.execute(make_req(
            SpatialAggregation.count(F("fare") > 4), trace=True)))
        tree = service.tracer.get(served.stats["trace"]["request_id"])
        parents = {}

        def walk(node, parent):
            parents.setdefault(node["name"], parent)
            for child in node["children"]:
                walk(child, node)

        walk(tree, None)
        wait = parents["execute"]
        assert wait["name"] == "flight.wait"
        assert wait["attrs"]["role"] == "leader"
        assert parents["admission.wait"] is wait
        assert parents["flight.wait"]["name"] == "request"

    def test_sql_requests_served(self, service):
        served = asyncio.run(service.execute(make_req(
            sql="SELECT COUNT(*) FROM trips, simple "
                "WHERE trips.loc INSIDE simple.geometry")))
        direct = asyncio.run(service.execute(
            make_req(SpatialAggregation.count())))
        assert np.array_equal(served.values, direct.values)

    def test_unknown_dataset_raises(self, service):
        req = decode_request(encode_request(
            "nope", "simple", query=SpatialAggregation.count()))
        with pytest.raises(QueryError):
            asyncio.run(service.execute(req))
        assert service.errors >= 0  # key error happens before the flight

    def test_concurrent_identical_requests_coalesce(self, service):
        async def burst():
            reqs = [make_req(SpatialAggregation.sum_of("fare"),
                             cache=False) for _ in range(8)]
            return await asyncio.gather(
                *[service.execute(r) for r in reqs])

        results = asyncio.run(burst())
        assert service.flight.coalesced > 0
        first = results[0]
        for r in results[1:]:
            assert r is not first
            assert np.array_equal(r.values, first.values)

    def test_deadline_degrades_and_is_recorded(self, service):
        served = asyncio.run(service.execute(make_req(
            SpatialAggregation.count(), exact=True, deadline_ms=1e-4)))
        degraded = served.stats["plan"]["degraded"]
        assert degraded["applied"] is True
        assert not served.exact


class TestStreaming:
    def test_stream_yields_partials_ending_final(self, service, manager,
                                                 simple_regions):
        async def consume():
            req = make_req(SpatialAggregation.count(), stream=True,
                           tile_pixels=64)
            return [p async for p in service.stream(req)]

        parts = asyncio.run(consume())
        assert parts[-1].final
        direct = manager.engine.execute(
            manager.dataset("trips"), simple_regions,
            SpatialAggregation.count(), method="bounded")
        assert np.array_equal(parts[-1].values, direct.values)

    def test_abandoned_stream_frees_the_slot(self, service):
        async def abandon():
            req = make_req(SpatialAggregation.count(), stream=True,
                           tile_pixels=32, stream_every=1)
            agen = service.stream(req)
            await agen.__anext__()  # first partial only
            await agen.aclose()

        asyncio.run(abandon())
        assert service.admission.active == 0


class TestStats:
    def test_stats_shape(self, manager, service):
        asyncio.run(service.execute(make_req(SpatialAggregation.count())))
        stats = service.stats()
        assert stats["queries"] == 1
        assert "trips" in stats["datasets"]
        assert "simple" in stats["region_sets"]
        # One engine, one flight map: the payload reads them directly.
        assert stats["cache"] == manager.engine.cache_stats()
        assert stats["coalesce"] == service.flight.stats()
        assert "pool" not in stats
        # The keys the serve-analysts benchmark reads.
        assert {"leaders", "coalesced"} <= set(stats["coalesce"])
        assert "shed_total" in stats["admission"]
        assert stats["speculate"] == {"observed": 0, "completed": 0,
                                      "hits": 0}

    def test_stats_payload_shape(self, service):
        """The payload's top-level blocks; there is no per-worker block."""
        asyncio.run(service.execute(make_req(SpatialAggregation.count())))
        stats = service.stats()
        assert {"queries", "errors", "datasets", "region_sets", "cache",
                "coalesce", "admission", "speculate"} <= set(stats)
        assert "pool" not in stats
        assert "workers" not in stats

    def test_cache_stats_are_the_engines(self, manager, service):
        """Repeated queries: the served cache counters are the engine's
        own, and its hit rate is hits over lookups."""
        queries = [SpatialAggregation.count(),
                   SpatialAggregation.avg_of("fare")]
        for query in queries:
            asyncio.run(service.execute(make_req(query)))
            asyncio.run(service.execute(make_req(query)))
        cache = service.stats()["cache"]
        assert cache == manager.engine.cache_stats()
        assert cache["hits"] > 0 and cache["misses"] > 0
        lookups = cache["hits"] + cache["misses"]
        assert cache["hit_rate"] == cache["hits"] / lookups

    def test_coalesce_stats_are_the_flights(self, service):
        asyncio.run(service.execute(make_req(SpatialAggregation.count())))
        coalesce = service.stats()["coalesce"]
        assert coalesce == service.flight.stats()
        assert coalesce["leaders"] >= 1


class TestRemoteSession:
    def test_same_script_as_interactive_session(self, manager, server):
        """Both sessions share one gesture vocabulary: the same script
        logs the same gestures, ends in the same state, pins the same
        grid viewports and returns bitwise-equal values."""
        from repro.core import RegionSet
        from repro.geometry import BBox, Polygon
        from repro.urbane import InteractiveSession, RemoteSession

        manager.add_region_set(RegionSet("halves", [
            Polygon([[0, 0], [50, 0], [50, 100], [0, 100]]),
            Polygon([[50, 0], [100, 0], [100, 100], [50, 100]]),
        ], ["west", "east"]))
        script = [
            ("brush_time", (100, 400)),
            ("add_filter", (F("fare") > 2.0,)),
            ("pan", (16, -8)),
            ("zoom", (2.0,)),
            ("set_viewport", (BBox(20.0, 10.0, 80.0, 70.0),)),
            ("set_region_level", ("halves",)),
            ("clear_filters", ()),
        ]
        local = InteractiveSession(manager, "trips", "simple",
                                   method="bounded", resolution=128)
        remote = RemoteSession(server, "trips", "simple",
                               method="bounded", resolution=128)
        for call, args in script:
            a = getattr(local, call)(*args)
            b = getattr(remote, call)(*args)
            assert local._viewport == remote._viewport, call
            assert np.array_equal(a.values, b.values, equal_nan=True), call
            assert np.array_equal(a.lower, b.lower, equal_nan=True), call
            assert np.array_equal(a.upper, b.upper, equal_nan=True), call
        assert [(i.op, i.detail) for i in local.log] \
            == [(i.op, i.detail) for i in remote.log]
        assert local.state == remote.state

    def test_pan_over_warm_blocks_logs_block_reuse(self, server):
        from repro.urbane import RemoteSession

        session = RemoteSession(server, "trips", "simple", method="bounded")
        session.pan(0, 0)    # pin the grid, scatter the cold frame
        session.pan(16, 0)
        # Between the two frames: a fresh served key whose blocks are
        # all resident, so the server assembles it without scattering.
        session.pan(-8, 0)
        back = session.log[-1]
        assert back.block_hits > 0
        assert back.block_misses == 0
        assert back.block_reuse > 0.0
        assert session.summary()["block_reuse_rate"] > 0.0
