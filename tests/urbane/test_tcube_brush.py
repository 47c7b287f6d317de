"""Timeline brushing through the temporal canvas cube.

Covers the urbane-facing wiring: ``TimeSeries.brush`` edge cases, the
series/matrix fast paths, the cached inside-mask, session brush
routing — each checked for equality against the serial exact/bounded
paths it shortcuts.
"""

import numpy as np
import pytest

from repro.core import SpatialAggregation, SpatialAggregationEngine
from repro.core.heatmatrix import region_time_matrix
from repro.table import F, PointTable, TimeRange, timestamp_column
from repro.urbane import DataManager, InteractiveSession, TimelineView
from repro.urbane.timeline import TimeSeries

HOUR = 3_600
T0 = 1_000_000 // HOUR * HOUR
SPAN_HOURS = 36


def make_table(n=15_000, seed=77) -> PointTable:
    """Points wholly inside the simple-regions bbox (covers_all cubes)."""
    gen = np.random.default_rng(seed)
    x = gen.uniform(10, 90, n)
    y = gen.uniform(10, 90, n)
    fare = np.round(gen.exponential(9.0, n))
    t = gen.integers(T0, T0 + SPAN_HOURS * HOUR, n)
    return PointTable.from_arrays(
        x, y, name="brush-pts",
        fare=fare, t=timestamp_column("t", t))


@pytest.fixture()
def manager(simple_regions) -> DataManager:
    dm = DataManager(SpatialAggregationEngine(default_resolution=256))
    dm.add_dataset(make_table(), "pts")
    dm.add_region_set(simple_regions, "simple")
    return dm


def hour_brush(lo, hi, agg="count", value_column=None):
    return SpatialAggregation(
        agg, value_column, (TimeRange("t", T0 + lo * HOUR, T0 + hi * HOUR),))


class TestBrushEdges:
    """Satellite: TimeSeries.brush edge cases against the cube path."""

    def _series(self, manager) -> TimeSeries:
        return TimelineView(manager).series("pts", bucket="hour")

    def test_single_bucket_brush(self, manager, simple_regions):
        series = self._series(manager)
        tr = series.brush(4, 5)
        assert tr.end - tr.start == HOUR
        self._check_cube_matches_bounded(manager, simple_regions, tr)

    def test_full_range_brush(self, manager, simple_regions):
        series = self._series(manager)
        tr = series.brush(0, len(series))
        assert tr.start == int(series.bucket_starts[0])
        self._check_cube_matches_bounded(manager, simple_regions, tr)

    def test_brush_matches_series_mass(self, manager):
        series = self._series(manager)
        tr = series.brush(3, 9)
        table = manager.dataset("pts")
        tvals = table.column("t").values
        inside = (tvals >= tr.start) & (tvals < tr.end)
        assert series.values[3:9].sum() == inside.sum()

    def _check_cube_matches_bounded(self, manager, regions, tr):
        query = SpatialAggregation("count", None, (tr,))
        table = manager.dataset("pts")
        engine = manager.engine
        got = engine.execute(table, regions, query, method="tcube-raster")
        want = engine.execute(table, regions, query, method="bounded")
        np.testing.assert_array_equal(got.values, want.values)
        np.testing.assert_array_equal(got.lower, want.lower)
        np.testing.assert_array_equal(got.upper, want.upper)


class TestSeriesFastPath:
    def test_series_served_from_cube(self, manager, simple_regions):
        table = manager.dataset("pts")
        view = TimelineView(manager)
        exact = view.series("pts", bucket="hour")
        # Materialize a cube, then the same call must serve from it.
        manager.engine.execute(table, simple_regions, hour_brush(0, 2),
                               method="tcube-raster")
        fast = view._series_from_tcube(table, HOUR, "t", (), None,
                                       "pts/hour")
        assert fast is not None
        np.testing.assert_array_equal(fast.bucket_starts,
                                      exact.bucket_starts)
        np.testing.assert_array_equal(fast.values, exact.values)
        served = view.series("pts", bucket="hour")
        np.testing.assert_array_equal(served.values, exact.values)

    def test_sum_series_needs_matching_value_column(self, manager,
                                                    simple_regions):
        table = manager.dataset("pts")
        view = TimelineView(manager)
        manager.engine.execute(table, simple_regions, hour_brush(0, 2),
                               method="tcube-raster")
        # The count-only cube cannot serve a fare-sum series ...
        assert view._series_from_tcube(table, HOUR, "t", (), "fare",
                                       "x") is None
        # ... but a fare cube can, and it matches the exact path.
        manager.engine.execute(
            table, simple_regions, hour_brush(0, 2, "sum", "fare"),
            method="tcube-raster")
        fast = view._series_from_tcube(table, HOUR, "t", (), "fare", "x")
        assert fast is not None
        exact = view.series("pts", bucket="hour", value_column="fare")
        np.testing.assert_array_equal(fast.values, exact.values)

    def test_filtered_series_not_served_by_unfiltered_cube(
            self, manager, simple_regions):
        table = manager.dataset("pts")
        view = TimelineView(manager)
        manager.engine.execute(table, simple_regions, hour_brush(0, 2),
                               method="tcube-raster")
        filt = (F("fare") > 5,)
        assert view._series_from_tcube(table, HOUR, "t", filt, None,
                                       "x") is None


class TestMatrixFastPath:
    def test_matrix_served_from_cube_matches_exact(self, manager,
                                                   simple_regions):
        table = manager.dataset("pts")
        view = TimelineView(manager)
        exact = view.matrix("pts", "simple", bucket="hour", resolution=256)
        assert exact.stats.get("source") != "tcube"
        manager.engine.execute(table, simple_regions, hour_brush(0, 2),
                               method="tcube-raster")
        fast = view.matrix("pts", "simple", bucket="hour", resolution=256)
        assert fast.stats["source"] == "tcube"
        np.testing.assert_array_equal(fast.bucket_starts,
                                      exact.bucket_starts)
        np.testing.assert_array_equal(fast.values, exact.values)

    def test_matrix_fast_path_agrees_with_direct_join(self, manager,
                                                      simple_regions):
        from repro.raster import Viewport

        table = manager.dataset("pts")
        view = TimelineView(manager)
        manager.engine.execute(table, simple_regions, hour_brush(0, 2),
                               method="tcube-raster")
        fast = view.matrix("pts", "simple", bucket="hour", resolution=256)
        assert fast.stats["source"] == "tcube"
        viewport = Viewport.fit(simple_regions.bbox, 256)
        want = region_time_matrix(table, simple_regions, viewport,
                                  time_column="t", bucket_seconds=HOUR)
        np.testing.assert_array_equal(fast.values, want.values)


class TestInsideMaskCache:
    def test_mask_cached_across_calls_and_filters(self, manager):
        view = TimelineView(manager)
        ctx = manager.engine.ctx
        base = view.series("pts", bucket="hour", region_set="simple",
                           region_name="disc")
        hits0 = ctx.cache.hits
        again = view.series("pts", bucket="hour", region_set="simple",
                            region_name="disc")
        assert ctx.cache.hits > hits0  # mask reused, not recomputed
        np.testing.assert_array_equal(again.values, base.values)
        # A different filter still reuses the same (filter-free) mask.
        hits1 = ctx.cache.hits
        view.series("pts", bucket="hour", region_set="simple",
                    region_name="disc", filters=(F("fare") > 3,))
        assert ctx.cache.hits > hits1

    def test_masked_series_counts_match_naive(self, manager, simple_regions):
        from repro.baselines import naive_join

        view = TimelineView(manager)
        series = view.series("pts", bucket="hour", region_set="simple",
                             region_name="holed")
        want = naive_join(manager.dataset("pts"), simple_regions,
                          SpatialAggregation.count()).value_of("holed")
        assert series.total == pytest.approx(want)


class TestSparkline:
    def test_block_average_matches_naive(self):
        gen = np.random.default_rng(3)
        vals = gen.exponential(5.0, 517)
        series = TimeSeries(
            np.arange(517, dtype=np.int64) * HOUR, vals, HOUR)
        width = 60
        edges = np.linspace(0, len(vals), width + 1).astype(int)
        naive = np.array([
            vals[edges[i]:edges[i + 1]].mean()
            if edges[i + 1] > edges[i] else 0.0
            for i in range(width)])
        hi = naive.max()
        glyphs = "▁▂▃▄▅▆▇█"
        want = "".join(
            glyphs[min(int(v / hi * (len(glyphs) - 1) + 0.5),
                       len(glyphs) - 1)]
            for v in naive)
        assert series.sparkline(width) == want


def tcube_keys(manager) -> list:
    return [k for k in manager.engine.ctx.cache.keys() if k[0] == "tcube"]


class TestSessionBrush:
    def test_brush_routes_to_tcube_and_hits(self, manager):
        session = InteractiveSession(manager, "pts", "simple",
                                     method="bounded", resolution=256)
        # First sighting of the key: re-scatter, remember the key.
        session.brush_time(T0 + 2 * HOUR, T0 + 9 * HOUR)
        first = session.log[-1]
        assert first.op == "time-brush"
        assert first.backend == "bounded"
        assert not tcube_keys(manager)
        # Same key again: build the cube.
        session.brush_time(T0 + 3 * HOUR, T0 + 10 * HOUR)
        assert session.log[-1].backend == "tcube-raster"
        assert session.last_result.stats["tcube"]["built"]
        # And from then on: hit it.
        session.brush_time(T0 + 4 * HOUR, T0 + 11 * HOUR)
        assert session.log[-1].backend == "tcube-raster"
        assert session.last_result.stats["tcube"]["hit"]

    def test_brush_result_matches_bounded(self, manager, simple_regions):
        session = InteractiveSession(manager, "pts", "simple",
                                     method="bounded", resolution=256)
        table = manager.dataset("pts")
        # Re-scatter, build, hit: every step equals a fresh bounded join.
        for lo, hi in ((1, 6), (2, 7), (0, 30)):
            result = session.brush_time(T0 + lo * HOUR, T0 + hi * HOUR)
            want = manager.engine.execute(
                table, simple_regions, hour_brush(lo, hi),
                method="bounded")
            np.testing.assert_array_equal(result.values, want.values)
            np.testing.assert_array_equal(result.lower, want.lower)
            np.testing.assert_array_equal(result.upper, want.upper)
        assert session.last_result.stats["tcube"]["hit"]

    def test_one_off_filtered_brush_never_builds(self, manager):
        session = InteractiveSession(manager, "pts", "simple",
                                     method="bounded", resolution=256)
        session.add_filter(F("fare") > 6.5)
        session.brush_time(T0 + 2 * HOUR, T0 + 9 * HOUR)
        assert session.log[-1].backend == "bounded"
        session.clear_time_brush()
        session.clear_filters()
        assert not tcube_keys(manager)

    def test_sessions_on_one_manager_share_seen_keys(self, manager):
        one = InteractiveSession(manager, "pts", "simple",
                                 method="bounded", resolution=256)
        two = InteractiveSession(manager, "pts", "simple",
                                 method="bounded", resolution=256)
        one.brush_time(T0 + 2 * HOUR, T0 + 9 * HOUR)
        assert one.log[-1].backend == "bounded"
        # The other analyst's brush on the same key is the repeat.
        two.brush_time(T0 + 5 * HOUR, T0 + 8 * HOUR)
        assert two.log[-1].backend == "tcube-raster"
        assert two.last_result.stats["tcube"]["built"]

    def test_clear_caches_forgets_seen_keys(self, manager):
        session = InteractiveSession(manager, "pts", "simple",
                                     method="bounded", resolution=256)
        session.brush_time(T0 + 2 * HOUR, T0 + 9 * HOUR)
        manager.clear_caches()
        assert not manager.engine.ctx.cache._seen
        session.brush_time(T0 + 3 * HOUR, T0 + 10 * HOUR)
        assert session.log[-1].backend == "bounded"

    def test_seen_keys_stay_within_capacity(self, manager):
        from repro.core.cache import MAX_SEEN_KEYS

        session = InteractiveSession(manager, "pts", "simple",
                                     method="bounded", resolution=256)
        cache = manager.engine.ctx.cache
        # Every threshold is a new residual filter, so a new key.
        for i in range(MAX_SEEN_KEYS + 8):
            session.state.filters = (F("fare") > float(i),)
            session.brush_time(T0 + 2 * HOUR, T0 + 9 * HOUR)
            assert len(cache._seen) <= MAX_SEEN_KEYS
        assert len(cache._seen) == MAX_SEEN_KEYS
        assert not tcube_keys(manager)

    def test_explicit_method_builds_on_first_call(self, manager,
                                                  simple_regions):
        table = manager.dataset("pts")
        engine = manager.engine
        first = engine.execute(table, simple_regions, hour_brush(2, 9),
                               method="tcube-raster")
        assert first.stats["tcube"]["built"]
        again = engine.execute(table, simple_regions, hour_brush(3, 9),
                               method="tcube-raster")
        assert again.stats["tcube"]["hit"]

    def test_unalignable_brush_falls_back(self, manager):
        session = InteractiveSession(manager, "pts", "simple",
                                     method="bounded", resolution=256)
        # A ragged brush no bucket grid answers: served by the
        # configured method, not an error.
        result = session.brush_time(T0 + 2 * HOUR + 17, T0 + 9 * HOUR + 3)
        assert session.log[-1].backend == "bounded"
        assert result.values.sum() > 0
