"""The live observability surface: /v1/metrics, /v1/trace, /v1/slow,
and the counters-reconcile-with-stats invariant under concurrency."""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.core import SpatialAggregation, SpatialAggregationEngine
from repro.obs import REGISTRY
from repro.serve import QueryService, ServeClient, ServerThread
from repro.table import F, PointTable
from repro.urbane import DataManager


def _make_manager() -> DataManager:
    gen = np.random.default_rng(21)
    n = 15_000
    manager = DataManager(SpatialAggregationEngine(default_resolution=128))
    manager.add_dataset(PointTable.from_arrays(
        gen.uniform(0, 100, n), gen.uniform(0, 100, n), name="trips",
        fare=gen.exponential(10.0, n)))
    return manager


@pytest.fixture()
def server(simple_regions):
    manager = _make_manager()
    manager.add_region_set(simple_regions)
    service = QueryService(manager, max_concurrency=4, max_queue=32,
                           slow_query_ms=0.0, trace_retain=8)
    REGISTRY.reset()
    with ServerThread(service) as thread:
        yield ServeClient(thread.server.url)


def _counter(snapshot: dict, name: str) -> float:
    return sum(c["value"] for c in snapshot["counters"]
               if c["name"] == name)


# -- /v1/metrics --------------------------------------------------------------


def test_metrics_json_schema(server):
    server.query("trips", "simple", SpatialAggregation.count())
    payload = server.metrics()
    assert payload["kind"] == "metrics"
    assert set(payload) >= {"v", "kind", "counters", "gauges",
                            "histograms"}
    for counter in payload["counters"]:
        assert set(counter) == {"name", "labels", "value"}
    assert _counter(payload, "repro_queries_total") == 1
    gauges = {g["name"] for g in payload["gauges"]}
    assert "repro_service_queries" in gauges
    assert "repro_admission_active" in gauges
    (hist,) = [h for h in payload["histograms"]
               if h["name"] == "repro_query_latency_ms"]
    assert hist["count"] == 1
    assert len(hist["counts"]) == len(hist["buckets_ms"]) + 1


def test_metrics_prometheus_format(server):
    server.query("trips", "simple", SpatialAggregation.count())
    text = server.metrics_prometheus()
    assert "# TYPE repro_queries_total counter" in text
    assert "# TYPE repro_service_queries gauge" in text
    assert "# TYPE repro_query_latency_ms histogram" in text
    assert 'repro_query_latency_ms_bucket{le="+Inf"} 1' in text
    assert "repro_query_latency_ms_count 1" in text


def test_metrics_reconcile_with_summed_stats(server):
    """Registry totals must equal the sums over per-response stats —
    the contract that makes /v1/metrics trustworthy."""
    thresholds = [1.0, 2.0, 3.0, 4.0] * 4

    def run(thr):
        return server.query(
            "trips", "simple",
            SpatialAggregation.count(F("fare") > thr))

    with ThreadPoolExecutor(max_workers=16) as pool:
        results = list(pool.map(run, thresholds))

    snapshot = server.metrics()
    assert _counter(snapshot, "repro_queries_total") == len(results)
    for field, name in (("query_hits", "repro_cache_query_hits_total"),
                        ("query_misses",
                         "repro_cache_query_misses_total")):
        summed = sum((r.stats.get("cache") or {}).get(field, 0)
                     for r in results)
        assert _counter(snapshot, name) == summed
    for field in ("hits", "derived", "misses"):
        summed = sum(((r.stats.get("cache") or {}).get("blocks") or {})
                     .get(field, 0) for r in results)
        assert _counter(snapshot, f"repro_block_{field}_total") == summed
    (hist,) = [h for h in snapshot["histograms"]
               if h["name"] == "repro_query_latency_ms"]
    assert hist["count"] == len(results)


def test_error_counter_reconciles_with_stats(server):
    """A failed unary query and a failed stream each count once in
    ``repro_errors_total``, exactly as in ``/v1/stats`` ``errors``."""
    from repro.errors import QueryError

    bad = SpatialAggregation.count(F("no_such_column") > 1)
    with pytest.raises(QueryError):
        server.query("trips", "simple", bad)
    with pytest.raises(QueryError):
        list(server.stream("trips", "simple", bad, tile_pixels=64))
    assert server.stats()["errors"] == 2
    assert _counter(server.metrics(), "repro_errors_total") == 2


def test_no_pool_or_worker_gauges(server):
    server.query("trips", "simple", SpatialAggregation.count())
    names = {g["name"] for g in server.metrics()["gauges"]}
    assert not [n for n in names
                if n.startswith(("repro_pool_", "repro_worker_"))]


# -- /v1/trace ----------------------------------------------------------------


def test_trace_endpoint_round_trip(server):
    result = server.query("trips", "simple", SpatialAggregation.count(),
                          trace=True)
    ref = result.stats["trace"]
    assert ref["request_id"].startswith("q")
    assert ref["wall_ms"] > 0

    listing = server.trace()
    assert listing["kind"] == "traces"
    assert ref["request_id"] in listing["request_ids"]

    payload = server.trace(ref["request_id"])
    assert payload["kind"] == "trace"
    tree = payload["trace"]
    assert tree["name"] == "request"
    assert tree["attrs"]["request_id"] == ref["request_id"]
    # A miss: the leader's admission wait and execution nest under its
    # flight.wait.
    (wait,) = [c for c in tree["children"] if c["name"] == "flight.wait"]
    names = {c["name"] for c in wait["children"]}
    assert "execute" in names
    assert "admission.wait" in names


def test_trace_unknown_id_is_404(server):
    from repro.errors import ProtocolError

    with pytest.raises(ProtocolError):
        server.trace("q-nope")


def test_untraced_response_has_no_trace_ref(server):
    # slow_query_ms=0.0 arms tracing for every request, but only the
    # trace=True knob surfaces the reference in the response stats.
    result = server.query("trips", "simple", SpatialAggregation.count())
    assert "trace" not in result.stats


# -- /v1/slow -----------------------------------------------------------------


def test_slow_query_log_surface(server):
    server.query("trips", "simple", SpatialAggregation.count())
    payload = server.slow_queries()
    assert payload["kind"] == "slow_queries"
    assert payload["slowlog"]["enabled"] is True
    assert payload["slowlog"]["threshold_ms"] == 0.0
    assert payload["slowlog"]["noted"] >= 1
    entry = payload["entries"][0]
    assert set(entry) == {"request_id", "wall_ms", "threshold_ms",
                          "summary", "trace"}
    assert entry["trace"]["name"] == "request"
    assert entry["summary"]["dataset"] == "trips"


def test_stats_expose_tracer_and_slowlog(server):
    server.query("trips", "simple", SpatialAggregation.count())
    stats = server.stats()
    assert stats["tracer"]["held"] >= 1
    assert stats["tracer"]["retain"] == 8
    assert stats["slowlog"]["noted"] >= 1
