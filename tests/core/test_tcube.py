"""Temporal canvas cube: build, answer, immutability, planner integration.

The load-bearing claims: cube answers are *bitwise* equal to the serial
bounded raster join for COUNT (always) and SUM (integer-valued data),
within float round-off for AVG; a built cube's planes are read-only;
and the planner only ever routes ``auto`` to the cube when a cached one
already answers.
"""

import sys
import threading

import numpy as np
import pytest

from repro.core import (
    SpatialAggregation,
    SpatialAggregationEngine,
    TCUBE_AGGREGATES,
    bounded_raster_join,
    build_temporal_canvas_cube,
    cube_for_brush,
    infer_bucket_seconds,
    split_time_filter,
)
from repro.core.tcube import find_answering_cube
from repro.errors import CubeError
from repro.raster import Viewport, build_fragment_table
from repro.table import PointTable, TimeRange, timestamp_column

HOUR = 3_600
T0 = 1_000_000 // HOUR * HOUR  # hour-aligned epoch origin
SPAN_HOURS = 36


@pytest.fixture(scope="module")
def cube_table() -> PointTable:
    """20k points over 36 hours with integer fares and a signed column."""
    gen = np.random.default_rng(4242)
    n = 20_000
    x = gen.uniform(0, 100, n)
    y = gen.uniform(0, 100, n)
    fare = np.round(gen.exponential(12.0, n))
    delta = np.round(gen.normal(0.0, 5.0, n))  # signed values
    t = gen.integers(T0, T0 + SPAN_HOURS * HOUR, n)
    return PointTable.from_arrays(
        x, y, name="cube-pts",
        fare=fare, delta=delta, t=timestamp_column("t", t))


@pytest.fixture(scope="module")
def viewport(simple_regions) -> Viewport:
    return Viewport.fit(simple_regions.bbox, 256)


@pytest.fixture(scope="module")
def fragments(simple_regions, viewport):
    return build_fragment_table(list(simple_regions.geometries), viewport)


@pytest.fixture(scope="module")
def cube(cube_table, viewport):
    return build_temporal_canvas_cube(cube_table, viewport, "t", HOUR,
                                      value_column="fare")


def brush_query(agg, value_column, start, end):
    return SpatialAggregation(agg, value_column,
                              (TimeRange("t", start, end),))


def assert_bitwise(got, want):
    np.testing.assert_array_equal(got.values, want.values)
    np.testing.assert_array_equal(got.lower, want.lower)
    np.testing.assert_array_equal(got.upper, want.upper)


class TestSplitAndInfer:
    def test_split_single_timerange(self):
        q = SpatialAggregation.count().during("t", 10, 20)
        tr, residual = split_time_filter(q)
        assert (tr.start, tr.end) == (10, 20)
        assert residual == ()

    def test_split_no_timerange(self):
        q = SpatialAggregation.count()
        tr, residual = split_time_filter(q)
        assert tr is None and residual == ()

    def test_split_two_timeranges_declines(self):
        q = SpatialAggregation.count().during("t", 0, 50).during("t", 10, 20)
        tr, residual = split_time_filter(q)
        assert tr is None and len(residual) == 2

    def test_infer_prefers_coarsest(self):
        # A day-aligned brush over a few days: the day rung fits.
        assert infer_bucket_seconds(86_400, 3 * 86_400,
                                    1000, 5 * 86_400) == 86_400

    def test_infer_hour_when_day_unaligned(self):
        start, end = T0 + HOUR, T0 + 5 * HOUR
        got = infer_bucket_seconds(start, end, T0, T0 + SPAN_HOURS * HOUR)
        assert got == HOUR

    def test_infer_none_when_impossible(self):
        # Second-aligned brush over a span too wide for second buckets.
        assert infer_bucket_seconds(7, 11, 0, 10_000_000) is None


class TestBuildAndAnswer:
    def test_shape_and_accounting(self, cube, cube_table, viewport):
        assert cube.num_buckets == SPAN_HOURS
        assert cube.prefix["count"].shape == (SPAN_HOURS + 1,
                                              cube.num_active_pixels)
        assert np.all(cube.prefix["count"][0] == 0)
        assert cube.memory_bytes() > 0
        assert cube.nonnegative_values  # fares >= 0: no mass plane
        assert "mass" not in cube.prefix
        in_view = viewport.pixel_ids_of(cube_table.x, cube_table.y)[1].sum()
        assert cube.bucket_counts.sum() == in_view

    @pytest.mark.parametrize("lo,hi", [(3, 20), (7, 8), (0, SPAN_HOURS)])
    def test_count_bitwise(self, cube, cube_table, simple_regions,
                           viewport, fragments, lo, hi):
        q = brush_query("count", None, T0 + lo * HOUR, T0 + hi * HOUR)
        assert cube.can_answer(q, viewport)
        got = cube.answer(simple_regions, fragments, q)
        want = bounded_raster_join(cube_table, simple_regions, q, viewport,
                                   fragments=fragments)
        assert_bitwise(got, want)
        assert got.stats["tcube"]["slices_touched"] == hi - lo

    def test_sum_bitwise_integer_values(self, cube, cube_table,
                                        simple_regions, viewport, fragments):
        q = brush_query("sum", "fare", T0 + 5 * HOUR, T0 + 29 * HOUR)
        got = cube.answer(simple_regions, fragments, q)
        want = bounded_raster_join(cube_table, simple_regions, q, viewport,
                                   fragments=fragments)
        assert_bitwise(got, want)

    def test_avg_within_roundoff(self, cube, cube_table, simple_regions,
                                 viewport, fragments):
        q = brush_query("avg", "fare", T0 + 2 * HOUR, T0 + 30 * HOUR)
        got = cube.answer(simple_regions, fragments, q)
        want = bounded_raster_join(cube_table, simple_regions, q, viewport,
                                   fragments=fragments)
        np.testing.assert_allclose(got.values, want.values,
                                   rtol=1e-12, atol=0.0)

    def test_signed_values_store_mass_plane(self, cube_table, simple_regions,
                                            viewport, fragments):
        signed = build_temporal_canvas_cube(cube_table, viewport, "t", HOUR,
                                            value_column="delta")
        assert not signed.nonnegative_values
        assert "mass" in signed.prefix
        q = brush_query("sum", "delta", T0 + 4 * HOUR, T0 + 11 * HOUR)
        got = signed.answer(simple_regions, fragments, q)
        want = bounded_raster_join(cube_table, simple_regions, q, viewport,
                                   fragments=fragments)
        assert_bitwise(got, want)

    def test_clamped_out_of_range_brush_is_zero(self, cube, simple_regions,
                                                viewport, fragments):
        q = brush_query("count", None, T0 - 10 * HOUR, T0 - 5 * HOUR)
        assert cube.can_answer(q, viewport)
        got = cube.answer(simple_regions, fragments, q)
        assert np.all(got.values == 0)
        assert np.all(got.upper == 0)

    def test_unaligned_brush_declines(self, cube, simple_regions, viewport,
                                      fragments):
        q = brush_query("count", None, T0 + HOUR + 17, T0 + 5 * HOUR)
        assert not cube.can_answer(q, viewport)
        with pytest.raises(CubeError):
            cube.answer(simple_regions, fragments, q)

    def test_wrong_viewport_or_agg_declines(self, cube, simple_regions):
        other = Viewport.fit(simple_regions.bbox, 128)
        q = brush_query("count", None, T0, T0 + HOUR)
        assert not cube.can_answer(q, other)
        assert "min" not in TCUBE_AGGREGATES
        q_min = brush_query("min", "fare", T0, T0 + HOUR)
        assert not cube.can_answer(q_min, cube.viewport)

    def test_build_matches_per_bucket_reference(self, cube_table, viewport,
                                                cube):
        """The one-bincount build against the obvious loop: one bincount
        per time bucket, cumsum'd — bitwise, since each (bucket, pixel)
        cell folds its points in table order either way."""
        pixel_ids, valid = viewport.pixel_ids_of(cube_table.x, cube_table.y)
        cols = np.searchsorted(cube.active_pixels, pixel_ids[valid])
        buckets = (cube_table.column("t").values[valid] - T0) // HOUR
        fare = cube_table.column("fare").values[valid]
        width = len(cube.active_pixels)
        for kind, weights in (("count", None), ("sum", fare)):
            plane = np.zeros((SPAN_HOURS + 1, width))
            for b in range(SPAN_HOURS):
                rows = buckets == b
                plane[b + 1] = plane[b] + np.bincount(
                    cols[rows],
                    weights=None if weights is None else weights[rows],
                    minlength=width)
            np.testing.assert_array_equal(cube.prefix[kind], plane)

    def test_empty_table_cube(self, simple_regions, viewport, fragments):
        empty = PointTable.from_arrays(
            np.empty(0), np.empty(0), name="empty",
            t=timestamp_column("t", np.empty(0, dtype=np.int64)))
        c = build_temporal_canvas_cube(empty, viewport, "t", HOUR)
        assert c.num_buckets == 0
        q = brush_query("count", None, T0, T0 + HOUR)
        assert c.can_answer(q, viewport)
        got = c.answer(simple_regions, fragments, q)
        assert np.all(got.values == 0)


class TestImmutable:
    @pytest.mark.parametrize("value_column,kinds", [
        (None, ["count"]),
        ("fare", ["count", "sum"]),
        ("delta", ["count", "mass", "sum"]),
    ])
    def test_prefix_planes_are_read_only(self, cube_table, viewport,
                                         value_column, kinds):
        """A cube shared through the engine cache is never written: every
        prefix plane of a COUNT, SUM and signed-SUM cube is read-only,
        and so are the per-bucket point counts."""
        cube = build_temporal_canvas_cube(cube_table, viewport, "t", HOUR,
                                          value_column=value_column)
        assert sorted(cube.prefix) == kinds
        for plane in cube.prefix.values():
            assert not plane.flags.writeable
            with pytest.raises(ValueError):
                plane[0, 0] = 1.0
        with pytest.raises(ValueError):
            cube.bucket_counts[0] = 1.0


class TestJoinRowMemo:
    def test_only_touched_rows_are_gathered(self, cube_table,
                                            simple_regions, viewport,
                                            fragments):
        """A brush gathers the rows at its two bucket edges and nothing
        else; a brush sharing an edge gathers only the other one."""
        cube = build_temporal_canvas_cube(cube_table, viewport, "t", HOUR)
        families = ("full", "covered", "partial")
        cube.answer(simple_regions, fragments,
                    brush_query("count", None, T0 + 3 * HOUR, T0 + 9 * HOUR))
        rows = cube._run_rows(fragments).rows
        assert set(rows) == {(f, "count", b) for f in families
                             for b in (3, 9)}
        cube.answer(simple_regions, fragments,
                    brush_query("count", None, T0 + 9 * HOUR, T0 + 12 * HOUR))
        assert set(rows) == {(f, "count", b) for f in families
                             for b in (3, 9, 12)}

    def test_hot_table_survives_a_fifth_table(self, cube_table,
                                              simple_regions, viewport):
        """The per-table memos are an LRU: a table used again after three
        others is kept, with its rows, when a fifth table arrives; the
        least recently used one goes."""
        cube = build_temporal_canvas_cube(cube_table, viewport, "t", HOUR)
        tables = [build_fragment_table(list(simple_regions.geometries),
                                       viewport) for _ in range(5)]
        q = brush_query("count", None, T0 + 2 * HOUR, T0 + 7 * HOUR)
        for table in tables[:4]:
            cube.answer(simple_regions, table, q)
        hot = cube._run_rows(tables[0])
        cube.answer(simple_regions, tables[4], q)
        assert len(cube._joins) == 4
        assert id(tables[1]) not in cube._joins
        assert cube._run_rows(tables[0]) is hot
        assert len(hot.rows) == 6


    def test_concurrent_brushes_share_the_memos(self, cube_table,
                                                simple_regions, viewport):
        """Threads brushing one cube over more fragment tables than the
        LRU holds (so memos are filled, hit and evicted concurrently)
        get the serial answers."""
        cube = build_temporal_canvas_cube(cube_table, viewport, "t", HOUR)
        tables = [build_fragment_table(list(simple_regions.geometries),
                                       viewport) for _ in range(6)]
        brushes = [(lo, lo + width) for lo in range(0, 30, 3)
                   for width in (1, 6)]
        want = {b: bounded_raster_join(
            cube_table, simple_regions,
            brush_query("count", None, T0 + b[0] * HOUR, T0 + b[1] * HOUR),
            viewport, fragments=tables[0]) for b in brushes}
        failures = []

        def worker(seed):
            gen = np.random.default_rng(seed)
            for _ in range(40):
                lo, hi = brushes[gen.integers(len(brushes))]
                table = tables[gen.integers(len(tables))]
                got = cube.answer(simple_regions, table, brush_query(
                    "count", None, T0 + lo * HOUR, T0 + hi * HOUR))
                for name in ("values", "lower", "upper"):
                    if not np.array_equal(getattr(got, name),
                                          getattr(want[lo, hi], name)):
                        failures.append((lo, hi, name))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=worker, args=(seed,))
                       for seed in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not failures
        assert len(cube._joins) <= 4


class TestEngineIntegration:
    def test_explicit_method_builds_then_hits(self, cube_table,
                                              simple_regions):
        engine = SpatialAggregationEngine(default_resolution=256)
        q = brush_query("count", None, T0 + 2 * HOUR, T0 + 9 * HOUR)
        first = engine.execute(cube_table, simple_regions, q,
                               method="tcube-raster")
        assert first.stats["tcube"]["built"]
        assert not first.stats["tcube"]["hit"]
        # cache=False: the cube answers again, not the stored answer.
        second = engine.execute(cube_table, simple_regions, q,
                                method="tcube-raster", cache=False)
        assert second.stats["tcube"]["hit"]
        np.testing.assert_array_equal(first.values, second.values)

    def test_auto_picks_cached_cube_and_matches_bounded(self, cube_table,
                                                        simple_regions):
        engine = SpatialAggregationEngine(default_resolution=256)
        q = brush_query("count", None, T0 + HOUR, T0 + 12 * HOUR)
        cold = engine.execute(cube_table, simple_regions, q, method="auto")
        assert cold.stats["plan"]["decision"]["chosen"] != "tcube-raster"
        assert not cold.stats["plan"]["inputs"]["tcube_cached"]

        engine.execute(cube_table, simple_regions, q, method="tcube-raster")
        # cache=False: plan again rather than replay the stored answer.
        hot = engine.execute(cube_table, simple_regions, q, method="auto",
                             cache=False)
        assert hot.stats["plan"]["inputs"]["tcube_cached"]
        assert hot.stats["plan"]["decision"]["chosen"] == "tcube-raster"

        want = engine.execute(cube_table, simple_regions, q,
                              method="bounded")
        assert_bitwise(hot, want)

    def test_cached_cube_serves_other_aligned_brushes(self, cube_table,
                                                      simple_regions):
        engine = SpatialAggregationEngine(default_resolution=256)
        build_q = brush_query("count", None, T0, T0 + 4 * HOUR)
        engine.execute(cube_table, simple_regions, build_q,
                       method="tcube-raster")
        other = brush_query("count", None, T0 + 20 * HOUR, T0 + 33 * HOUR)
        viewport = engine.plan_viewport(simple_regions, None, None)
        assert find_answering_cube(engine.ctx, cube_table, other,
                                   viewport) is not None
        result = engine.execute(cube_table, simple_regions, other,
                                method="auto")
        assert result.stats["plan"]["decision"]["chosen"] == "tcube-raster"
        assert result.stats["tcube"]["hit"]

    def test_cube_for_brush_gates(self, cube_table, simple_regions):
        engine = SpatialAggregationEngine(default_resolution=256)
        viewport = engine.plan_viewport(simple_regions, None, None)
        ctx = engine.ctx
        aligned = brush_query("count", None, T0, T0 + 2 * HOUR)
        assert cube_for_brush(ctx, cube_table, aligned, viewport) is not None
        no_time = SpatialAggregation.count()
        assert cube_for_brush(ctx, cube_table, no_time, viewport) is None
        bad_agg = brush_query("min", "fare", T0, T0 + 2 * HOUR)
        assert cube_for_brush(ctx, cube_table, bad_agg, viewport) is None

    def test_cache_byte_accounting(self, cube_table, simple_regions):
        engine = SpatialAggregationEngine(default_resolution=256)
        q = brush_query("count", None, T0, T0 + 2 * HOUR)
        before = engine.cache_stats()["bytes"]
        engine.execute(cube_table, simple_regions, q, method="tcube-raster")
        assert engine.cache_stats()["bytes"] > before
