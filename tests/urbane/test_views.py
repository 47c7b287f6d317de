"""Tests for DataManager, MapView, exploration, timeline and sessions."""

import numpy as np
import pytest

from repro.core import SpatialAggregation, pixel_region_labels
from repro.baselines import naive_join
from repro.errors import QueryError
from repro.table import F
from repro.urbane import (
    DataExplorationView,
    DataManager,
    Indicator,
    InteractiveSession,
    MapView,
    TimelineView,
)


@pytest.fixture(scope="module")
def manager(demo):
    dm = DataManager()
    for name, table in demo.datasets.items():
        dm.add_dataset(table, name)
    for name, regions in demo.regions.items():
        dm.add_region_set(regions, name)
    return dm


class TestDataManager:
    def test_registration_and_lookup(self, manager, demo):
        assert set(manager.dataset_names) == set(demo.datasets)
        assert manager.dataset("taxi") is demo.datasets["taxi"]

    def test_duplicate_rejected(self, manager, demo):
        with pytest.raises(QueryError):
            manager.add_dataset(demo.datasets["taxi"], "taxi")
        with pytest.raises(QueryError):
            manager.add_region_set(demo.regions["boroughs"], "boroughs")

    def test_missing_lookup(self, manager):
        with pytest.raises(QueryError):
            manager.dataset("nope")
        with pytest.raises(QueryError):
            manager.region_set("nope")

    def test_aggregate_by_name(self, manager, demo):
        got = manager.aggregate("taxi", "neighborhoods",
                                SpatialAggregation.count(),
                                method="accurate")
        want = naive_join(demo.datasets["taxi"],
                          demo.regions["neighborhoods"],
                          SpatialAggregation.count())
        assert got.values == pytest.approx(want.values)


class TestMapView:
    def test_choropleth_structure(self, manager, demo):
        view = MapView(manager, resolution=128)
        ch = view.choropleth("taxi", "neighborhoods",
                             SpatialAggregation.count())
        assert len(ch.values) == len(demo.regions["neighborhoods"])
        assert ch.pixel_regions.shape == (ch.viewport.num_pixels,)
        drawn = ch.pixel_regions[ch.pixel_regions >= 0]
        assert drawn.max() < len(demo.regions["neighborhoods"])
        # The painted layer is the one pixel labeler over the engine's
        # (cached) fragments.
        fragments = manager.engine.fragments_for(
            demo.regions["neighborhoods"], ch.viewport)
        np.testing.assert_array_equal(ch.pixel_regions,
                                      pixel_region_labels(fragments))

    def test_image_and_ppm(self, manager, tmp_path):
        view = MapView(manager, resolution=96)
        ch = view.choropleth("taxi", "boroughs", SpatialAggregation.count())
        img = ch.image()
        assert img.shape == (ch.viewport.height, ch.viewport.width, 3)
        ch.save_ppm(tmp_path / "map.ppm")
        assert (tmp_path / "map.ppm").stat().st_size > 100

    def test_ascii_nonempty(self, manager):
        view = MapView(manager, resolution=96)
        ch = view.choropleth("taxi", "boroughs", SpatialAggregation.count())
        art = ch.ascii(max_cols=40, max_rows=15)
        assert len(art.strip()) > 0

    def test_zoom_to_region(self, manager, demo):
        view = MapView(manager, resolution=128)
        regions = demo.regions["neighborhoods"]
        name = regions.region_names[0]
        zoomed = view.zoom_to("taxi", "neighborhoods",
                              SpatialAggregation.count(), name)
        # Painted window centers on the region's bbox.
        geom = regions[regions.id_of(name)]
        assert zoomed.viewport.bbox.contains_bbox(geom.bbox)
        assert zoomed.viewport.bbox.area < regions.bbox.area
        # Values equal the full-extent aggregation (zoom is display-only).
        full = view.choropleth("taxi", "neighborhoods",
                               SpatialAggregation.count())
        assert (zoomed.values == full.values).all()
        # The zoomed region occupies a large share of the painted pixels.
        target = regions.id_of(name)
        share = (zoomed.pixel_regions == target).mean()
        assert share > 0.1

    def test_custom_viewport_paint(self, manager, demo):
        from repro.raster import Viewport

        view = MapView(manager, resolution=96)
        regions = demo.regions["boroughs"]
        window = Viewport.fit(regions.bbox.scale(0.3), 96)
        ch = view.choropleth("taxi", "boroughs",
                             SpatialAggregation.count(), viewport=window)
        assert ch.viewport == window
        assert ch.pixel_regions.shape == (window.num_pixels,)

    def test_heatmap(self, manager, demo):
        view = MapView(manager, resolution=64)
        canvas, vp = view.heatmap("taxi")
        assert canvas.sum() == len(demo.datasets["taxi"])
        assert canvas.shape == (vp.num_pixels,)


class TestExploration:
    @pytest.fixture(scope="class")
    def matrix(self, manager):
        view = DataExplorationView(manager, "neighborhoods",
                                   method="accurate")
        return view.compute([
            Indicator("activity", "taxi", SpatialAggregation.count()),
            Indicator("complaints", "complaints311",
                      SpatialAggregation.count(), higher_is_better=False),
            Indicator("crime", "crime",
                      SpatialAggregation.sum_of("severity"),
                      higher_is_better=False),
        ])

    def test_matrix_shape(self, matrix, demo):
        n = len(demo.regions["neighborhoods"])
        assert matrix.raw.shape == (n, 3)
        assert matrix.normalized.shape == (n, 3)

    def test_normalized_in_unit_interval(self, matrix):
        ok = np.isfinite(matrix.normalized)
        assert (matrix.normalized[ok] >= 0).all()
        assert (matrix.normalized[ok] <= 1).all()

    def test_ranking_sorted(self, matrix):
        ranking = matrix.ranking()
        scores = [s for _, s in ranking]
        assert scores == sorted(scores, reverse=True)

    def test_rank_of_top_region_is_one(self, matrix):
        best = matrix.ranking()[0][0]
        assert matrix.rank_of(best) == 1

    def test_weights_change_ranking_scores(self, matrix):
        base = matrix.scores()
        heavy = matrix.scores({"activity": 10.0, "complaints": 0.1,
                               "crime": 0.1})
        assert not np.allclose(base, heavy, equal_nan=True)

    def test_zero_weights_rejected(self, matrix):
        with pytest.raises(QueryError):
            matrix.scores({"activity": 0, "complaints": 0, "crime": 0})

    def test_similar_excludes_self(self, matrix):
        name = matrix.region_names[0]
        similar = matrix.similar_to(name, k=5)
        assert name not in [n for n, _ in similar]
        dists = [d for _, d in similar]
        assert dists == sorted(dists)

    def test_compare_regions(self, matrix):
        a, b = matrix.region_names[:2]
        cmp = matrix.compare(a, b)
        assert set(cmp) == {"activity", "complaints", "crime"}
        assert a in cmp["activity"]

    def test_unknown_region(self, matrix):
        with pytest.raises(QueryError):
            matrix.rank_of("atlantis")

    def test_empty_indicators_rejected(self, manager):
        view = DataExplorationView(manager, "neighborhoods")
        with pytest.raises(QueryError):
            view.compute([])


class TestTimeline:
    def test_series_totals(self, manager, demo):
        view = TimelineView(manager)
        series = view.series("taxi", bucket="day")
        assert series.total == len(demo.datasets["taxi"])
        assert len(series) >= demo.months * 28

    def test_hour_buckets_finer(self, manager):
        view = TimelineView(manager)
        days = view.series("taxi", bucket="day")
        hours = view.series("taxi", bucket="hour")
        assert len(hours) > 20 * len(days)
        assert hours.total == days.total

    def test_region_restriction(self, manager, demo):
        view = TimelineView(manager)
        regions = demo.regions["neighborhoods"]
        name = regions.region_names[0]
        series = view.series("taxi", bucket="day", region_set="neighborhoods",
                             region_name=name)
        want = naive_join(demo.datasets["taxi"], regions,
                          SpatialAggregation.count()).value_of(name)
        assert series.total == pytest.approx(want)

    def test_region_requires_set(self, manager):
        view = TimelineView(manager)
        with pytest.raises(QueryError):
            view.series("taxi", region_name="x")

    def test_value_column_sums(self, manager, demo):
        view = TimelineView(manager)
        series = view.series("taxi", bucket="week", value_column="fare")
        assert series.total == pytest.approx(
            demo.datasets["taxi"].values("fare").sum())

    def test_brush_filter(self, manager):
        view = TimelineView(manager)
        series = view.series("taxi", bucket="day")
        brush = series.brush(5, 10)
        assert brush.end - brush.start == 5 * 86_400

    def test_brush_validation(self, manager):
        series = TimelineView(manager).series("taxi", bucket="day")
        with pytest.raises(QueryError):
            series.brush(10, 5)

    def test_sparkline_and_peak(self, manager):
        series = TimelineView(manager).series("taxi", bucket="day")
        assert len(series.sparkline(30)) <= 30
        start, value = series.peak()
        assert value == series.values.max()

    def test_smoothed_preserves_mass_roughly(self, manager):
        series = TimelineView(manager).series("taxi", bucket="day")
        sm = series.smoothed(3)
        assert sm.sum() == pytest.approx(series.values.sum(), rel=0.05)

    def test_unknown_bucket(self, manager):
        with pytest.raises(QueryError):
            TimelineView(manager).series("taxi", bucket="fortnight")


class TestSession:
    def test_gesture_log(self, manager, demo):
        session = InteractiveSession(manager, "taxi", "neighborhoods",
                                     resolution=128)
        session.brush_time(demo.start, demo.start + 30 * 86_400)
        session.add_filter(F("payment") == "card")
        session.set_region_level("boroughs")
        session.set_dataset("crime")
        session.clear_filters()
        session.clear_time_brush()
        assert len(session.log) == 7  # open + 6 gestures
        assert session.summary()["interactions"] == 7
        assert "interactions" in session.report()

    def test_filters_affect_result(self, manager, demo):
        session = InteractiveSession(manager, "taxi", "neighborhoods",
                                     resolution=128)
        before = session.last_result.values.sum()
        session.add_filter(F("payment") == "card")
        after = session.last_result.values.sum()
        assert after < before

    def test_aggregation_change(self, manager):
        session = InteractiveSession(manager, "taxi", "boroughs",
                                     resolution=96)
        result = session.set_aggregation(SpatialAggregation.avg_of("fare"))
        assert np.nanmax(result.values) < 1000

    def test_empty_brush_rejected(self, manager):
        session = InteractiveSession(manager, "taxi", "boroughs",
                                     resolution=96)
        with pytest.raises(QueryError):
            session.brush_time(100, 100)

    def test_unknown_dataset_validated_before_refresh(self, manager):
        session = InteractiveSession(manager, "taxi", "boroughs",
                                     resolution=96)
        with pytest.raises(QueryError):
            session.set_dataset("nope")
        # State unchanged.
        assert session.state.dataset == "taxi"

    def test_interactive_latencies(self, manager):
        session = InteractiveSession(manager, "taxi", "neighborhoods",
                                     resolution=128)
        for __ in range(3):
            session.clear_filters()
        stats = session.summary()
        assert stats["interactive_fraction"] == 1.0
