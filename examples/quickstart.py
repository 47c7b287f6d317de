"""Quickstart: one spatial aggregation query, every way the library can run it.

Builds the demo city + taxi data, then answers the paper's headline query

    SELECT COUNT(*) FROM taxi, neighborhoods
    WHERE taxi.loc INSIDE neighborhoods.geometry
    GROUP BY neighborhood

with the bounded raster join, the accurate raster join, and the exact
index-join baselines — printing values, guaranteed error bounds, and
latencies side by side.

Run:  python examples/quickstart.py
"""

from __future__ import annotations

import time

from repro.core import SpatialAggregation, SpatialAggregationEngine
from repro.data import load_demo_workload


def main() -> None:
    print("Generating the demo city (synthetic stand-in for NYC)...")
    workload = load_demo_workload(taxi_rows=300_000, complaint_rows=50_000,
                                  crime_rows=30_000)
    taxi = workload.datasets["taxi"]
    neighborhoods = workload.regions["neighborhoods"]
    print(f"  {taxi.describe()}")
    print(f"  {neighborhoods!r}\n")

    engine = SpatialAggregationEngine(default_resolution=512)
    query = SpatialAggregation.count()
    print(f"Query: {query.describe()}\n")

    methods = ("bounded", "accurate", "grid")
    results = {}
    print(f"{'method':<10} {'latency':>9}   result (top neighborhood)")
    for method in methods:
        engine.execute(taxi, neighborhoods, query, method=method)  # warm
        t0 = time.perf_counter()
        # cache=False: time the warm join, not the stored answer.
        result = engine.execute(taxi, neighborhoods, query, method=method,
                                cache=False)
        latency = time.perf_counter() - t0
        results[method] = result
        top_name, top_value = result.top_k(1)[0]
        print(f"{method:<10} {latency * 1000:7.1f}ms   "
              f"{top_name} = {top_value:,.0f}")

    bounded = results["bounded"]
    exact = results["accurate"]
    print("\nBounded raster join guarantees:")
    print(f"  epsilon (max misassignment distance): "
          f"{bounded.stats['epsilon_world_units']:.1f} m")
    print(f"  widest numeric bound interval:        "
          f"{bounded.max_bound_width():,.0f} points")
    print(f"  exact values inside the bounds:       "
          f"{bounded.bounds_contain(exact)}")
    metrics = bounded.compare_to(exact)
    print(f"  observed max relative error:          "
          f"{metrics['max_rel_error'] * 100:.3f}%")

    print("\nAd-hoc filters come free — add one and re-run:")
    from repro.table import F

    filtered = query.where(F("payment") == "card").during(
        "t", workload.start, workload.start + 30 * 86_400)
    t0 = time.perf_counter()
    result = engine.execute(taxi, neighborhoods, filtered, method="bounded")
    latency = time.perf_counter() - t0
    print(f"  card-only, first month: "
          f"{result.stats['points_after_filter']:,} rows pass the filter, "
          f"answered in {latency * 1000:.1f}ms")


if __name__ == "__main__":
    main()
