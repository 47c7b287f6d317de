"""Metrics registry: primitives, exports, and the stats bridges."""

from __future__ import annotations

import threading

import pytest

from repro.obs import MetricsRegistry, record_query_stats, sample_service_stats
from repro.obs.metrics import DEFAULT_BUCKETS_MS, Histogram


# -- primitives ---------------------------------------------------------------


def test_counter_is_monotonic():
    reg = MetricsRegistry()
    c = reg.counter("hits_total")
    c.inc()
    c.inc(4)
    assert reg.counter("hits_total") is c
    assert c.value == 5
    with pytest.raises(ValueError):
        c.inc(-1)


def test_labels_key_distinct_series():
    reg = MetricsRegistry()
    a = reg.counter("queries_total", method="bounded")
    b = reg.counter("queries_total", method="grid")
    assert a is not b
    # Label order does not matter for identity.
    assert reg.gauge("g", x="1", y="2") is reg.gauge("g", y="2", x="1")


def test_histogram_buckets_and_overflow():
    h = Histogram(buckets_ms=(1.0, 10.0, 100.0))
    for value in (0.5, 5.0, 50.0, 500.0, 5000.0):
        h.observe(value)
    assert h.counts == [1, 1, 1, 2]  # final slot is +Inf overflow
    assert h.count == 5
    assert h.sum_ms == pytest.approx(5555.5)
    with pytest.raises(ValueError):
        Histogram(buckets_ms=(10.0, 1.0))


def test_registry_snapshot_shape():
    reg = MetricsRegistry()
    reg.counter("c_total", method="x").inc(2)
    reg.gauge("g").set(7)
    reg.histogram("h_ms").observe(3.0)
    snap = reg.snapshot()
    assert snap["counters"] == [
        {"name": "c_total", "labels": {"method": "x"}, "value": 2.0}]
    assert snap["gauges"] == [{"name": "g", "labels": {}, "value": 7.0}]
    (hist,) = snap["histograms"]
    assert hist["name"] == "h_ms"
    assert hist["buckets_ms"] == list(DEFAULT_BUCKETS_MS)
    assert sum(hist["counts"]) == hist["count"] == 1
    reg.reset()
    assert reg.snapshot() == {"counters": [], "gauges": [],
                              "histograms": []}


def test_prometheus_rendering():
    reg = MetricsRegistry()
    reg.counter("repro_queries_total", method="bounded").inc(3)
    reg.gauge("repro_active").set(1)
    h = reg.histogram("repro_latency_ms", buckets_ms=(10.0, 100.0))
    h.observe(5.0)
    h.observe(50.0)
    text = reg.render_prometheus()
    lines = text.splitlines()
    assert "# TYPE repro_queries_total counter" in lines
    assert 'repro_queries_total{method="bounded"} 3' in lines
    assert "# TYPE repro_active gauge" in lines
    assert "repro_active 1" in lines
    assert "# TYPE repro_latency_ms histogram" in lines
    # Buckets cumulate on the way out; +Inf closes the series.
    assert 'repro_latency_ms_bucket{le="10"} 1' in lines
    assert 'repro_latency_ms_bucket{le="100"} 2' in lines
    assert 'repro_latency_ms_bucket{le="+Inf"} 2' in lines
    assert "repro_latency_ms_sum 55" in lines
    assert "repro_latency_ms_count 2" in lines
    assert text.endswith("\n")


def test_concurrent_increments_do_not_lose_counts():
    reg = MetricsRegistry()
    c = reg.counter("contended_total")

    def spin():
        for __ in range(10_000):
            c.inc()

    threads = [threading.Thread(target=spin) for __ in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert c.value == 80_000


# -- bridges ------------------------------------------------------------------


def test_record_query_stats_maps_the_stats_payload():
    reg = MetricsRegistry()
    stats = {
        "plan": {"decision": {"chosen": "bounded"},
                 "degraded": {"applied": True}},
        "cache": {"query_hits": 1, "query_misses": 2,
                  "blocks": {"hits": 10, "derived": 3, "misses": 4}},
        "store": {"partitions": {"scanned": 6, "pruned": 9},
                  "rows": {"scanned": 1234}},
        "tcube": {"slices_touched": 5},
    }
    record_query_stats(stats, wall_s=0.030, registry=reg)
    record_query_stats({}, wall_s=0.001, registry=reg)

    def value(name, **labels):
        return reg.counter(name, **labels).value

    assert value("repro_queries_total", method="bounded") == 1
    assert value("repro_queries_total", method="unknown") == 1
    assert value("repro_degraded_total") == 1
    assert value("repro_cache_query_hits_total") == 1
    assert value("repro_cache_query_misses_total") == 2
    assert value("repro_block_hits_total") == 10
    assert value("repro_block_derived_total") == 3
    assert value("repro_block_misses_total") == 4
    assert value("repro_store_partitions_scanned_total") == 6
    assert value("repro_store_partitions_pruned_total") == 9
    assert value("repro_store_rows_scanned_total") == 1234
    assert value("repro_tcube_slices_touched_total") == 5
    hist = reg.histogram("repro_query_latency_ms")
    assert hist.count == 2
    assert hist.sum_ms == pytest.approx(31.0)


def test_sample_service_stats_flattens_gauges():
    reg = MetricsRegistry()
    stats = {
        "queries": 12,
        "stream_queries": 1,
        "errors": 0,
        "admission": {"active": 2, "waiting": 1,
                      "shed": {"queue_full": 3}},
        "coalesce": {"leaders": 5, "coalesce_rate": 0.25},
        "cache": {"entries": 9, "bytes": 4096,
                  "blocks": {"hits": 7}},  # dropped: counters cover blocks
        "pyramid": {"block_hits": 7, "enabled": True},
        # The inert block QueryService.stats() still carries.
        "speculate": {"observed": 0, "completed": 0, "hits": 0},
    }
    sample_service_stats(stats, registry=reg)

    def value(name, **labels):
        return reg.gauge(name, **labels).value

    assert value("repro_service_queries") == 12
    assert value("repro_admission_active") == 2
    assert value("repro_admission_shed_queue_full") == 3
    assert value("repro_coalesce_coalesce_rate") == 0.25
    assert value("repro_cache_bytes") == 4096
    assert value("repro_pyramid_block_hits") == 7
    # Bools never become gauges; blocks are excluded from cache gauges.
    snap = reg.snapshot()
    names = {g["name"] for g in snap["gauges"]}
    assert "repro_pyramid_enabled" not in names
    assert "repro_cache_blocks_hits" not in names
    assert not [n for n in names if n.startswith("repro_speculate")]
