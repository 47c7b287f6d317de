"""E2: query latency vs. number of points.

The core performance experiment of the Raster Join evaluation: how each
backend scales as |P| grows.  Expected shape: every method is ~linear
in |P|, but the bounded raster join's constant is far smaller than the
exact index joins'; the accurate variant sits between them.  The naive
comparator is included only at the smallest scale to anchor the plot.
"""

import pytest

from repro.core import SpatialAggregation

pytestmark = pytest.mark.benchmark(group="E2 scale points")

QUERY = SpatialAggregation.count()


@pytest.mark.parametrize("scale", ["50k", "200k", "800k"])
@pytest.mark.parametrize("method", ["bounded", "accurate", "grid"])
def test_scale_points(benchmark, warm_engine, bench_taxi, bench_regions,
                      scale, method):
    taxi = bench_taxi[scale]
    regions = bench_regions["neighborhoods"]
    warm_engine.execute(taxi, regions, QUERY, method=method)

    result = benchmark(warm_engine.execute, taxi, regions, QUERY,
                       method=method)
    benchmark.extra_info["points"] = len(taxi)
    benchmark.extra_info["total_count"] = float(result.values.sum())


def test_scale_points_naive_anchor(benchmark, warm_engine, bench_taxi,
                                   bench_regions):
    result = benchmark.pedantic(
        warm_engine.execute,
        args=(bench_taxi["50k"], bench_regions["neighborhoods"], QUERY),
        kwargs={"method": "naive"}, rounds=2, iterations=1)
    benchmark.extra_info["points"] = 50_000
