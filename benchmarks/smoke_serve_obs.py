"""CI smoke for the live observability surface.

Stands up a real server, drives a small concurrent query mix, and then
interrogates the endpoints the dashboards depend on:

* ``GET /v1/metrics`` — JSON schema (counter/gauge/histogram field
  sets) and the reconciliation invariant: registry totals must equal
  the sums over per-response stats;
* ``GET /v1/metrics?format=prometheus`` — exposition-format markers;
* ``GET /v1/trace`` / ``GET /v1/trace/<request_id>`` — listing and
  round-trip of a retained span tree, including leaf coverage;
* ``GET /v1/slow`` — threshold-gated slow-query entries;
* errors — one failing unary query and one failing stream each count
  once in ``repro_errors_total``, matching ``/v1/stats`` ``errors``,
  and no ``repro_pool_*`` / ``repro_worker_*`` gauge is exported.

Exits non-zero on any schema drift or reconciliation failure, so a
wire-format regression fails CI before it reaches a consumer.
"""

from __future__ import annotations

import argparse
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np

FAILURES: list[str] = []


def check(ok: bool, what: str) -> None:
    tag = "ok" if ok else "FAIL"
    print(f"  [{tag}] {what}")
    if not ok:
        FAILURES.append(what)


def counter_total(snapshot: dict, name: str) -> float:
    return sum(c["value"] for c in snapshot["counters"]
               if c["name"] == name)


def run_smoke(points: int, clients: int, resolution: int) -> int:
    from repro.core import SpatialAggregation, SpatialAggregationEngine
    from repro.data import CityModel, voronoi_regions
    from repro.errors import QueryError
    from repro.obs import REGISTRY
    from repro.obs.trace import leaf_coverage
    from repro.serve import QueryService, ServeClient, ServerThread
    from repro.table import F, PointTable
    from repro.urbane import DataManager

    city = CityModel(seed=7)
    gen = np.random.default_rng(11)
    manager = DataManager(SpatialAggregationEngine(
        default_resolution=resolution))
    manager.add_dataset(PointTable.from_arrays(
        gen.uniform(0, 100, points), gen.uniform(0, 100, points),
        name="trips", fare=gen.exponential(10.0, points)))
    regions = voronoi_regions(city, 12, name="neighborhoods")
    manager.add_region_set(regions)

    REGISTRY.reset()
    service = QueryService(manager, max_concurrency=4, max_queue=32,
                           slow_query_ms=0.0, trace_retain=16)
    with ServerThread(service) as thread:
        client = ServeClient(thread.server.url)

        print(f"-- soak: {clients} clients")
        thresholds = [0.5 * (k % 4) for k in range(clients)]

        def run(thr):
            return client.query(
                "trips", "neighborhoods",
                SpatialAggregation.count(F("fare") > thr))

        with ThreadPoolExecutor(max_workers=clients) as pool:
            results = list(pool.map(run, thresholds))

        traced = client.query("trips", "neighborhoods",
                              SpatialAggregation.count(), trace=True)
        results.append(traced)

        print("-- /v1/metrics (json)")
        snapshot = client.metrics()
        check(snapshot.get("kind") == "metrics", "kind == metrics")
        check(set(snapshot) >= {"v", "kind", "counters", "gauges",
                                "histograms"},
              "top-level fields present")
        check(all(set(c) == {"name", "labels", "value"}
                  for c in snapshot["counters"]),
              "counter field set {name, labels, value}")
        check(all(set(g) == {"name", "labels", "value"}
                  for g in snapshot["gauges"]),
              "gauge field set {name, labels, value}")
        check(all(set(h) == {"name", "labels", "buckets_ms", "counts",
                             "sum_ms", "count"}
                  for h in snapshot["histograms"]),
              "histogram field set")

        check(counter_total(snapshot, "repro_queries_total")
              == len(results),
              f"repro_queries_total == {len(results)} served responses")
        for field, name in (
                ("query_hits", "repro_cache_query_hits_total"),
                ("query_misses", "repro_cache_query_misses_total")):
            summed = sum((r.stats.get("cache") or {}).get(field, 0)
                         for r in results)
            check(counter_total(snapshot, name) == summed,
                  f"{name} reconciles ({summed})")
        hists = [h for h in snapshot["histograms"]
                 if h["name"] == "repro_query_latency_ms"]
        check(len(hists) == 1
              and hists[0]["count"] == len(results),
              "latency histogram count == served responses")

        print("-- /v1/metrics (prometheus)")
        text = client.metrics_prometheus()
        for marker in ("# TYPE repro_queries_total counter",
                       "# TYPE repro_query_latency_ms histogram",
                       'repro_query_latency_ms_bucket{le="+Inf"}'):
            check(marker in text, f"prometheus marker {marker!r}")

        print("-- /v1/trace")
        ref = traced.stats.get("trace") or {}
        check(bool(ref.get("request_id")),
              "traced response carries stats.trace.request_id")
        listing = client.trace()
        check(listing.get("kind") == "traces"
              and ref.get("request_id") in listing.get("request_ids", []),
              "trace listing contains the traced request")
        payload = client.trace(ref["request_id"])
        tree = payload.get("trace") or {}
        check(payload.get("kind") == "trace"
              and tree.get("name") == "request",
              "trace round trip returns the span tree")
        coverage = leaf_coverage(tree) if tree else 0.0
        check(coverage >= 0.5,
              f"span leaves explain wall time (coverage {coverage:.2f})")

        print("-- /v1/slow")
        slow = client.slow_queries()
        check(slow.get("kind") == "slow_queries", "kind == slow_queries")
        entries = slow.get("entries") or []
        check(bool(entries) and all(
            set(e) == {"request_id", "wall_ms", "threshold_ms",
                       "summary", "trace"} for e in entries),
              "slow-query entry field set")

        print("-- errors")
        bad = SpatialAggregation.count(F("no_such_column") > 1)
        for what, call in (
                ("unary", lambda: client.query("trips", "neighborhoods",
                                               bad)),
                ("stream", lambda: list(client.stream(
                    "trips", "neighborhoods", bad)))):
            try:
                call()
                check(False, f"failing {what} query raises QueryError")
            except QueryError:
                check(True, f"failing {what} query raises QueryError")
        errors = client.stats()["errors"]
        snapshot = client.metrics()
        check(errors == 2
              and counter_total(snapshot, "repro_errors_total") == errors,
              f"repro_errors_total == /v1/stats errors ({errors})")
        stray = [g["name"] for g in snapshot["gauges"]
                 if g["name"].startswith(("repro_pool_", "repro_worker_"))]
        check(not stray, f"no pool/worker gauges exported {stray}")

    if FAILURES:
        print(f"\n{len(FAILURES)} check(s) FAILED:")
        for what in FAILURES:
            print(f"  - {what}")
        return 1
    print("\nall observability surface checks passed")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--points", type=int, default=30_000)
    parser.add_argument("--clients", type=int, default=16)
    parser.add_argument("--resolution", type=int, default=128)
    args = parser.parse_args(argv)
    return run_smoke(args.points, args.clients, args.resolution)


if __name__ == "__main__":
    sys.exit(main())
