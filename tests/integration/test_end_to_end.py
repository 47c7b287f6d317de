"""Integration tests: the full stack working together.

These tests cross modules deliberately: generators -> tables -> engine
-> views -> serialization, asserting mutual consistency rather than
unit behaviour.
"""

import numpy as np
import pytest

from repro.baselines import DataCube, assign_regions
from repro.core import (
    COUNT,
    RegionSet,
    SpatialAggregation,
    SpatialAggregationEngine,
)
from repro.data import SECONDS_PER_DAY, month_window
from repro.table import F, load_npz, save_npz
from repro.urbane import (
    DataExplorationView,
    DataManager,
    Indicator,
    InteractiveSession,
    MapView,
    TimelineView,
)

ALL_EXACT_METHODS = ("accurate", "grid", "naive")


class TestBackendConsistency:
    """Every backend answers the same realistic workload identically."""

    @pytest.mark.parametrize("query_name,query", [
        ("count", SpatialAggregation.count()),
        ("filtered-avg", SpatialAggregation.avg_of(
            "fare", F("payment") == "card")),
        ("time-window", SpatialAggregation.count().during(
            "t", *month_window(0))),
    ])
    def test_exact_methods_agree(self, demo, query_name, query):
        engine = SpatialAggregationEngine(default_resolution=256)
        taxi = demo.datasets["taxi"]
        regions = demo.regions["neighborhoods"]
        results = [engine.execute(taxi, regions, query, method=m)
                   for m in ALL_EXACT_METHODS]
        base = results[0].values
        for result in results[1:]:
            if query.agg == COUNT:
                assert np.array_equal(base, result.values), (
                    f"{result.method} disagrees on {query_name}")
                continue
            both_nan = np.isnan(base) & np.isnan(result.values)
            assert (both_nan | np.isclose(base, result.values)).all(), (
                f"{result.method} disagrees on {query_name}")

    def test_bounded_and_tiled_bracket_exact(self, demo):
        engine = SpatialAggregationEngine(default_resolution=256)
        taxi = demo.datasets["taxi"]
        regions = demo.regions["neighborhoods"]
        query = SpatialAggregation.count()
        exact = engine.execute(taxi, regions, query, method="naive")
        for method in ("bounded", "tiled"):
            approx = engine.execute(taxi, regions, query, method=method)
            assert approx.bounds_contain(exact), method

    def test_assignment_consistent_with_joins(self, demo):
        taxi = demo.datasets["taxi"].sample(10_000, seed=1)
        regions = demo.regions["neighborhoods"]
        labels = assign_regions(taxi, regions)
        engine = SpatialAggregationEngine()
        exact = engine.execute(taxi, regions, SpatialAggregation.count(),
                               method="accurate")
        counts = np.bincount(labels[labels >= 0], minlength=len(regions))
        assert counts == pytest.approx(exact.values)


class TestViewsAgree:
    """Different views computing the same quantity must agree."""

    def test_timeline_total_matches_map_total(self, demo):
        manager = DataManager()
        manager.add_dataset(demo.datasets["taxi"], "taxi")
        manager.add_region_set(demo.regions["neighborhoods"],
                               "neighborhoods")
        start, end = month_window(0)
        query = SpatialAggregation.count().during("t", start, end)
        choropleth = MapView(manager, resolution=256).choropleth(
            "taxi", "neighborhoods", query, method="accurate")
        series = TimelineView(manager).series(
            "taxi", bucket="day",
            filters=[F("t").time_range(start, end)])
        # Timeline counts all rows in the window; the map counts rows
        # inside some region — boundary clipping drops only slivers.
        assert choropleth.result.values.sum() == pytest.approx(
            series.total, rel=0.02)

    def test_exploration_matrix_matches_direct_queries(self, demo):
        manager = DataManager()
        for name, table in demo.datasets.items():
            manager.add_dataset(table, name)
        manager.add_region_set(demo.regions["neighborhoods"],
                               "neighborhoods")
        view = DataExplorationView(manager, "neighborhoods",
                                   method="accurate")
        matrix = view.compute([
            Indicator("activity", "taxi", SpatialAggregation.count())])
        direct = manager.aggregate("taxi", "neighborhoods",
                                   SpatialAggregation.count(),
                                   method="accurate")
        assert matrix.raw[:, 0] == pytest.approx(direct.values)

    def test_heat_matrix_consistent_with_timeline(self, demo):
        manager = DataManager()
        manager.add_dataset(demo.datasets["taxi"], "taxi")
        manager.add_region_set(demo.regions["neighborhoods"],
                               "neighborhoods")
        view = TimelineView(manager)
        matrix = view.matrix("taxi", "neighborhoods", bucket="day")
        name = demo.regions["neighborhoods"].region_names[0]
        series = view.series("taxi", bucket="day", region_set="neighborhoods",
                             region_name=name)
        # Exact per-region series vs. pixel-labeled series: equal up to
        # boundary-pixel misassignment.
        got = matrix.series_for(name)
        if len(got) > len(series.values):
            got = got[:len(series.values)]
        rel = np.abs(got - series.values[:len(got)]).sum() / max(
            series.total, 1)
        assert rel < 0.05


class TestSerializationPipeline:
    def test_npz_round_trip_preserves_query_results(self, demo, tmp_path):
        taxi = demo.datasets["taxi"].sample(20_000, seed=2)
        regions = demo.regions["neighborhoods"]
        engine = SpatialAggregationEngine()
        query = SpatialAggregation.avg_of("fare", F("payment") == "card")
        before = engine.execute(taxi, regions, query, method="accurate")

        path = tmp_path / "taxi.npz"
        save_npz(taxi, path)
        restored = load_npz(path)
        after = engine.execute(restored, regions, query, method="accurate")
        both_nan = np.isnan(before.values) & np.isnan(after.values)
        assert (both_nan | np.isclose(before.values, after.values)).all()

    def test_geojson_round_trip_preserves_query_results(self, demo):
        taxi = demo.datasets["taxi"].sample(20_000, seed=3)
        regions = demo.regions["neighborhoods"]
        restored = RegionSet.from_geojson("copy", regions.to_geojson())
        engine = SpatialAggregationEngine()
        query = SpatialAggregation.count()
        a = engine.execute(taxi, regions, query, method="accurate")
        b = engine.execute(taxi, restored, query, method="accurate")
        assert a.values == pytest.approx(b.values)


class TestCubeEngineAgreement:
    def test_cube_and_raster_join_agree_on_aligned_queries(self, demo):
        taxi = demo.datasets["taxi"]
        regions = demo.regions["neighborhoods"]
        cube = DataCube(taxi, regions, time_column="t",
                        time_bucket_s=SECONDS_PER_DAY,
                        category_columns=("payment",),
                        value_column="fare")
        engine = SpatialAggregationEngine()
        start, end = month_window(0)
        for query in (
            SpatialAggregation.count().during("t", start, end),
            SpatialAggregation.sum_of("fare", F("payment") == "card"),
        ):
            from_cube = cube.answer(regions, query)
            from_engine = engine.execute(taxi, regions, query,
                                         method="accurate")
            assert from_cube.values == pytest.approx(from_engine.values)


class TestSessionAgainstGroundTruth:
    def test_session_results_track_exact_answers(self, demo):
        manager = DataManager()
        for name, table in demo.datasets.items():
            manager.add_dataset(table, name)
        for name, regions in demo.regions.items():
            manager.add_region_set(regions, name)
        session = InteractiveSession(manager, "taxi", "neighborhoods",
                                     method="bounded", resolution=512)
        start, end = month_window(0)
        session.brush_time(start, end)
        approx = session.add_filter(F("payment") == "card")

        engine = manager.engine
        exact = engine.execute(
            demo.datasets["taxi"], demo.regions["neighborhoods"],
            session.state.effective_query(), method="accurate",
            resolution=512)
        assert approx.bounds_contain(exact)
        metrics = approx.compare_to(exact)
        assert metrics["max_rel_error"] < 0.1
