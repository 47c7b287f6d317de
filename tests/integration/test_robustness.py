"""Failure injection and degenerate-input robustness.

The library should fail loudly and precisely on bad input, and keep
producing correct answers on legal-but-nasty input (empty selections,
off-screen data, huge coordinates, sliver polygons).
"""

import numpy as np
import pytest

from repro.core import (
    RegionSet,
    SpatialAggregation,
    SpatialAggregationEngine,
    accurate_raster_join,
    backend_names,
    bounded_raster_join,
)
from repro.baselines import naive_join
from repro.errors import GeometryError, ReproError, SchemaError
from repro.geometry import BBox, Polygon, regular_polygon
from repro.raster import Viewport
from repro.table import F, PointTable, timestamp_column


def _engine():
    return SpatialAggregationEngine(default_resolution=128)


class TestBadInputsFailLoudly:
    def test_nan_coordinates_rejected_at_construction(self):
        # NaNs would silently poison bbox/raster computations — the
        # failure must surface at construction time.
        with pytest.raises(SchemaError, match="finite"):
            PointTable.from_arrays([np.nan, 1.0], [0.0, 1.0])
        with pytest.raises(SchemaError, match="finite"):
            PointTable.from_arrays([0.0], [np.inf])

    def test_unknown_filter_column(self, simple_regions):
        table = PointTable.from_arrays([1.0], [1.0])
        with pytest.raises(SchemaError, match="no column"):
            _engine().execute(table, simple_regions,
                              SpatialAggregation.count(F("ghost") > 1))

    def test_aggregate_over_missing_column(self, simple_regions):
        table = PointTable.from_arrays([1.0], [1.0])
        with pytest.raises(SchemaError):
            _engine().execute(table, simple_regions,
                              SpatialAggregation.sum_of("ghost"))

    def test_degenerate_region_rejected(self):
        with pytest.raises(GeometryError):
            RegionSet("bad", [[[0, 0], [1, 1], [2, 2]]])  # zero area

    def test_zero_resolution_rejected(self, simple_regions):
        table = PointTable.from_arrays([1.0], [1.0])
        with pytest.raises(GeometryError):
            _engine().execute(table, simple_regions,
                              SpatialAggregation.count(), resolution=0)


class TestNastyButLegalInputs:
    def test_empty_selection_all_methods(self, simple_regions):
        gen = np.random.default_rng(0)
        table = PointTable.from_arrays(
            gen.uniform(0, 100, 1000), gen.uniform(0, 100, 1000),
            fare=gen.exponential(5, 1000))
        query = SpatialAggregation.count(F("fare") > 1e18)
        engine = _engine()
        for method in ("bounded", "accurate", "grid", "naive", "tiled"):
            result = engine.execute(table, simple_regions, query,
                                    method=method)
            assert (result.values == 0).all(), method

    def test_empty_table_every_backend(self, simple_regions):
        """A backend that answers a day-aligned time brush on one row
        answers it on no rows too: zeros, not an error."""
        day = 86_400
        query = SpatialAggregation.count().during("t", day, 3 * day)

        def table(n):
            return PointTable.from_arrays(
                np.full(n, 25.0), np.full(n, 25.0),
                t=timestamp_column("t", np.full(n, 2 * day)))

        answered = []
        for method in backend_names():
            try:
                _engine().execute(table(1), simple_regions, query,
                                  method=method)
            except ReproError:
                continue
            result = _engine().execute(table(0), simple_regions, query,
                                       method=method)
            assert (result.values == 0).all(), method
            answered.append(method)
        assert {"naive", "grid", "cube"} <= set(answered)

    def test_all_points_outside_regions(self, simple_regions):
        table = PointTable.from_arrays([500.0, 600.0], [500.0, 600.0])
        engine = _engine()
        for method in ("bounded", "accurate", "naive"):
            result = engine.execute(table, simple_regions,
                                    SpatialAggregation.count(),
                                    method=method)
            assert (result.values == 0).all()

    def test_single_point_single_region(self):
        regions = RegionSet("one", [regular_polygon(50, 50, 10, 6)])
        inside = PointTable.from_arrays([50.0], [50.0])
        outside = PointTable.from_arrays([80.0], [80.0])
        engine = _engine()
        assert engine.execute(inside, regions, SpatialAggregation.count(),
                              method="accurate").values[0] == 1
        assert engine.execute(outside, regions, SpatialAggregation.count(),
                              method="accurate").values[0] == 0

    def test_huge_coordinates(self):
        base = 1e7  # web-mercator-scale offsets
        regions = RegionSet(
            "far", [regular_polygon(base + 500, base + 500, 400, 8)])
        gen = np.random.default_rng(1)
        table = PointTable.from_arrays(
            base + gen.uniform(0, 1000, 20_000),
            base + gen.uniform(0, 1000, 20_000))
        vp = Viewport.fit(regions.bbox, 256)
        got = accurate_raster_join(table, regions,
                                   SpatialAggregation.count(), vp)
        want = naive_join(table, regions, SpatialAggregation.count())
        assert got.values == pytest.approx(want.values)

    def test_sliver_polygon(self):
        """A polygon thinner than a pixel: bounded must stay within
        bounds, accurate must stay exact."""
        sliver = Polygon([[10, 50], [90, 50.001], [90, 50.3], [10, 50.301]])
        regions = RegionSet("sliver", [sliver])
        gen = np.random.default_rng(2)
        table = PointTable.from_arrays(
            gen.uniform(0, 100, 50_000), gen.uniform(49, 52, 50_000))
        vp = Viewport.fit(BBox(0, 0, 100, 100), 128)  # pixel ~ 0.8 units
        want = naive_join(table, regions, SpatialAggregation.count())
        got_exact = accurate_raster_join(table, regions,
                                         SpatialAggregation.count(), vp)
        assert got_exact.values == pytest.approx(want.values)
        got_bounded = bounded_raster_join(table, regions,
                                          SpatialAggregation.count(), vp)
        assert got_bounded.bounds_contain(want)

    def test_region_smaller_than_pixel(self):
        tiny = regular_polygon(50.05, 50.05, 0.01, 6)
        regions = RegionSet("tiny", [tiny])
        table = PointTable.from_arrays([50.05, 20.0], [50.05, 20.0])
        vp = Viewport.fit(BBox(0, 0, 100, 100), 64)
        got = accurate_raster_join(table, regions,
                                   SpatialAggregation.count(), vp)
        assert got.values[0] == 1

    def test_identical_points_pile_up(self, simple_regions):
        table = PointTable.from_arrays(
            np.full(10_000, 25.0), np.full(10_000, 25.0))
        engine = _engine()
        for method in ("bounded", "accurate", "grid"):
            result = engine.execute(table, simple_regions,
                                    SpatialAggregation.count(),
                                    method=method)
            assert result.values[0] == 10_000, method

    def test_min_max_with_negative_values(self, simple_regions):
        gen = np.random.default_rng(3)
        table = PointTable.from_arrays(
            gen.uniform(0, 100, 5000), gen.uniform(0, 100, 5000),
            delta=gen.normal(-50, 10, 5000))
        engine = _engine()
        got = engine.execute(table, simple_regions,
                             SpatialAggregation.min_of("delta"),
                             method="accurate")
        want = naive_join(table, simple_regions,
                          SpatialAggregation.min_of("delta"))
        both_nan = np.isnan(got.values) & np.isnan(want.values)
        assert (both_nan | np.isclose(got.values, want.values)).all()

    def test_sum_bounds_with_negative_values(self, simple_regions):
        """|value| mass keeps SUM bounds valid even for signed data."""
        gen = np.random.default_rng(4)
        table = PointTable.from_arrays(
            gen.uniform(0, 100, 20_000), gen.uniform(0, 100, 20_000),
            delta=gen.normal(0, 10, 20_000))
        vp = Viewport.fit(simple_regions.bbox, 64)  # coarse on purpose
        got = bounded_raster_join(table, simple_regions,
                                  SpatialAggregation.sum_of("delta"), vp)
        want = naive_join(table, simple_regions,
                          SpatialAggregation.sum_of("delta"))
        assert got.bounds_contain(want)
