"""Timeline brushing through the temporal canvas cube.

Covers the urbane-facing wiring: ``TimeSeries.brush`` edge cases, the
timeline's one answer (independent of cached cubes, and equal to one
bounded join per bucket), the cached inside-mask, session brush
routing — each checked for equality against the serial exact/bounded
paths it shortcuts.
"""

import numpy as np
import pytest

from repro.core import SpatialAggregation, SpatialAggregationEngine
from repro.data import (
    CityModel,
    generate_taxi_trips,
    grid_regions,
    voronoi_regions,
)
from repro.errors import QueryError
from repro.raster import Viewport
from repro.table import F, PointTable, TimeRange, timestamp_column
from repro.urbane import DataManager, InteractiveSession, TimelineView
from repro.urbane.timeline import TimeSeries

HOUR = 3_600
T0 = 1_000_000 // HOUR * HOUR
SPAN_HOURS = 36


def make_table(n=15_000, seed=77, round_fares=True) -> PointTable:
    """Points wholly inside the simple-regions bbox."""
    gen = np.random.default_rng(seed)
    x = gen.uniform(10, 90, n)
    y = gen.uniform(10, 90, n)
    fare = gen.exponential(9.0, n)
    if round_fares:
        fare = np.round(fare)
    t = gen.integers(T0, T0 + SPAN_HOURS * HOUR, n)
    return PointTable.from_arrays(
        x, y, name="brush-pts",
        fare=fare, t=timestamp_column("t", t))


def make_manager(table, regions, name="simple") -> DataManager:
    dm = DataManager(SpatialAggregationEngine(default_resolution=256))
    dm.add_dataset(table, "pts")
    dm.add_region_set(regions, name)
    return dm


@pytest.fixture()
def manager(simple_regions) -> DataManager:
    return make_manager(make_table(), simple_regions)


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


class TestOneTimelineAnswer:
    """The timeline bins the table; what the cache holds changes nothing."""

    def test_fare_answers_ignore_a_cached_fare_cube(self, simple_regions):
        # Non-integral fares: a cube's prefix differences would round
        # differently from the table's per-bucket sums.
        manager = make_manager(make_table(round_fares=False),
                               simple_regions)
        table = manager.dataset("pts")
        view = TimelineView(manager)

        def answers():
            return (view.matrix("pts", "simple", bucket="hour",
                                value_column="fare", resolution=256),
                    view.series("pts", bucket="hour", value_column="fare"))

        matrix, series = answers()
        built = manager.engine.execute(
            table, simple_regions, hour_brush(0, 2, "sum", "fare"),
            method="tcube-raster")
        assert built.stats["tcube"]["built"]
        viewport = Viewport.fit(simple_regions.bbox, 256)
        assert any(cube.viewport == viewport and cube.value_column == "fare"
                   for cube in manager.engine.ctx.cached_tcubes(table))
        matrix_after, series_after = answers()
        np.testing.assert_array_equal(matrix_after.bucket_starts,
                                      matrix.bucket_starts)
        np.testing.assert_array_equal(matrix_after.values, matrix.values)
        np.testing.assert_array_equal(series_after.bucket_starts,
                                      series.bucket_starts)
        np.testing.assert_array_equal(series_after.values, series.values)

    @pytest.mark.parametrize("partition, bucket, days", [
        ("grid", "hour", 2),
        ("voronoi", "day", 30),
    ])
    def test_count_columns_equal_bounded_joins(self, partition, bucket,
                                               days):
        city = CityModel(seed=5)
        day = 86_400
        start = 1_230_768_000
        table = generate_taxi_trips(city, 20_000, start=start,
                                    end=start + days * day, seed=9)
        if partition == "grid":
            regions = grid_regions(city.bbox, 5, 3, name="zones")
        else:
            regions = voronoi_regions(city, 70, name="zones", seed=3)
        manager = make_manager(table, regions, name="zones")
        matrix = TimelineView(manager).matrix(
            "pts", "zones", bucket=bucket, resolution=256)
        assert matrix.num_buckets > 1
        width = matrix.bucket_seconds
        for b, t0 in enumerate(matrix.bucket_starts):
            query = SpatialAggregation(
                "count", None, (TimeRange("t", int(t0), int(t0) + width),))
            want = manager.engine.execute(table, regions, query,
                                          method="bounded", resolution=256)
            np.testing.assert_array_equal(matrix.values[:, b], want.values)


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


class TestEmptySeries:
    def test_peak_of_empty_series_is_a_query_error(self, manager):
        series = TimelineView(manager).series(
            "pts", bucket="hour", filters=(F("fare") < 0,))
        assert len(series) == 0
        with pytest.raises(QueryError, match="empty series"):
            series.peak()


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
        """The engine's seen keys (block families) are shared; the cube
        memory is each session's own."""
        one = InteractiveSession(manager, "pts", "simple",
                                 method="bounded", resolution=256)
        two = InteractiveSession(manager, "pts", "simple",
                                 method="bounded", resolution=256)
        one.pan(0, 0)
        two.pan(8, 0)
        one.brush_time(T0 + 2 * HOUR, T0 + 9 * HOUR)
        assert one.last_result.stats["pyramid"]["path"] == "direct"
        # The other analyst's brush on the same key is a move of it.
        two.brush_time(T0 + 2 * HOUR, T0 + 9 * HOUR)
        assert two.last_result.stats["pyramid"]["path"] == "assembled"
        # ... but not the second step of a sweep: two brushed once.
        assert two.log[-1].backend == "bounded"

    def test_clear_caches_forgets_seen_keys(self, manager):
        """``clear_caches`` empties the engine's memory, not the
        session's: the sweep goes on and builds its cube."""
        session = InteractiveSession(manager, "pts", "simple",
                                     method="bounded", resolution=256)
        session.pan(0, 0)
        session.brush_time(T0 + 2 * HOUR, T0 + 9 * HOUR)
        assert manager.engine.ctx.cache._seen
        manager.clear_caches()
        assert not manager.engine.ctx.cache._seen
        session.brush_time(T0 + 3 * HOUR, T0 + 10 * HOUR)
        assert session.log[-1].backend == "tcube-raster"
        assert session.last_result.stats["tcube"]["built"]

    def test_seen_keys_stay_within_capacity(self, manager):
        from repro.core.cache import MAX_SEEN_KEYS

        session = InteractiveSession(manager, "pts", "simple",
                                     method="bounded", resolution=256)
        session.pan(0, 0)
        cache = manager.engine.ctx.cache
        # Every threshold is a new residual filter, so a new block
        # family and a new cube spec: one-offs that leave no blocks
        # and build no cube.
        for i in range(MAX_SEEN_KEYS + 8):
            session.state.filters = (F("fare") > float(i),)
            session.brush_time(T0 + 2 * HOUR, T0 + 9 * HOUR)
            assert session.log[-1].backend == "bounded"
            assert len(cache._seen) <= MAX_SEEN_KEYS
        assert len(cache._seen) == MAX_SEEN_KEYS
        assert not tcube_keys(manager)
        assert not [k for k in cache.keys() if k[0] == "canvas-block"]

    def test_an_interleaved_brush_breaks_the_sweep(self, manager):
        session = InteractiveSession(manager, "pts", "simple",
                                     method="bounded", resolution=256)
        session.brush_time(T0 + 2 * HOUR, T0 + 9 * HOUR)
        session.state.filters = (F("fare") > 3,)  # another cube spec
        session.brush_time(T0 + 2 * HOUR, T0 + 9 * HOUR)
        session.state.filters = ()
        session.brush_time(T0 + 3 * HOUR, T0 + 10 * HOUR)
        assert [i.backend for i in session.log[-3:]] == ["bounded"] * 3
        session.brush_time(T0 + 4 * HOUR, T0 + 11 * HOUR)
        assert session.log[-1].backend == "tcube-raster"
        assert not [k for k in manager.engine.ctx.cache.keys()
                    if k[0] == "tcube" and k[2][4]]  # no filtered cube

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
