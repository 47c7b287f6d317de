"""E1 (Figure 1): the map-view refresh.

The paper's headline interaction: taxi pickups for one month aggregated
over the neighborhoods, rendered as a choropleth.  We benchmark the
spatial aggregation behind the refresh for each backend; the paper's
claim is that raster join keeps this gesture interactive where exact
index joins struggle as data grows.
"""

import pytest

from repro.core import SpatialAggregation
from repro.data import month_window

pytestmark = pytest.mark.benchmark(group="E1 mapview refresh")

START, END = month_window(0)
QUERY = SpatialAggregation.count().during("t", START, END)


@pytest.mark.parametrize("method", ["bounded", "accurate", "grid"])
def test_mapview_refresh(benchmark, warm_engine, bench_taxi, bench_regions,
                         method):
    taxi = bench_taxi["800k"]
    regions = bench_regions["neighborhoods"]
    warm_engine.execute(taxi, regions, QUERY, method=method)  # warm indexes

    result = benchmark(warm_engine.execute, taxi, regions, QUERY,
                       method=method)
    benchmark.extra_info["rows_in_month"] = result.stats.get(
        "points_after_filter", 0)
    benchmark.extra_info["regions"] = len(regions)


def test_mapview_full_choropleth_pipeline(benchmark, bench_datasets,
                                          bench_regions):
    """End-to-end view refresh: aggregation + color mapping + painting."""
    from repro.urbane import DataManager, MapView

    manager = DataManager()
    manager.add_dataset(bench_datasets["taxi"], "taxi")
    manager.add_region_set(bench_regions["neighborhoods"], "neighborhoods")
    view = MapView(manager, resolution=512)
    view.choropleth("taxi", "neighborhoods", QUERY)  # warm fragment cache

    choropleth = benchmark(view.choropleth, "taxi", "neighborhoods", QUERY)
    benchmark.extra_info["canvas_pixels"] = choropleth.viewport.num_pixels
