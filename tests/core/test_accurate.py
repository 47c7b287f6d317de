"""Exactness tests for the accurate raster join.

The central claim: accurate raster join == naive brute force, for every
aggregate, every geometry shape (concave, holed, multi-part), every
filter, and adversarial point placements (points on edges, on pixel
grid lines, clustered at boundaries).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import naive_join
from repro.core import (
    RegionSet,
    SpatialAggregation,
    accurate_raster_join,
    bounded_raster_join,
)
from repro.geometry import BBox, Polygon, regular_polygon
from repro.raster import Viewport
from repro.table import F, PointTable, timestamp_column


def _table(n=20_000, seed=0):
    gen = np.random.default_rng(seed)
    return PointTable.from_arrays(
        gen.uniform(0, 100, n), gen.uniform(0, 100, n),
        fare=gen.exponential(10, n),
        t=timestamp_column("t", gen.integers(0, 1000, n)),
        kind=gen.choice(["a", "b"], n))


def _assert_equal(a, b):
    both_nan = np.isnan(a.values) & np.isnan(b.values)
    close = np.isclose(a.values, b.values, rtol=1e-9, atol=1e-6)
    assert (both_nan | close).all(), f"{a.values} != {b.values}"


VIEWPORTS = [Viewport.fit(BBox(0, 0, 100, 100), r) for r in (32, 100, 257)]


class TestExactness:
    @pytest.mark.parametrize("resolution", [16, 64, 200])
    def test_count_matches_naive(self, simple_regions, resolution):
        table = _table()
        vp = Viewport.fit(simple_regions.bbox, resolution)
        got = accurate_raster_join(table, simple_regions,
                                   SpatialAggregation.count(), vp)
        want = naive_join(table, simple_regions, SpatialAggregation.count())
        _assert_equal(got, want)
        assert got.exact

    @pytest.mark.parametrize("query", [
        SpatialAggregation.count(),
        SpatialAggregation.sum_of("fare"),
        SpatialAggregation.avg_of("fare"),
        SpatialAggregation.min_of("fare"),
        SpatialAggregation.max_of("fare"),
    ], ids=["count", "sum", "avg", "min", "max"])
    def test_all_aggregates_match_naive(self, simple_regions, query):
        table = _table(seed=1)
        vp = Viewport.fit(simple_regions.bbox, 128)
        got = accurate_raster_join(table, simple_regions, query, vp)
        want = naive_join(table, simple_regions, query)
        _assert_equal(got, want)

    def test_with_filters(self, simple_regions):
        table = _table(seed=2)
        query = SpatialAggregation.avg_of(
            "fare", F("kind") == "a", F("t").time_range(100, 800))
        vp = Viewport.fit(simple_regions.bbox, 96)
        got = accurate_raster_join(table, simple_regions, query, vp)
        want = naive_join(table, simple_regions, query)
        _assert_equal(got, want)

    def test_points_on_polygon_edges(self):
        """Adversarial: many points exactly on region boundaries."""
        square = Polygon([[10, 10], [90, 10], [90, 90], [10, 90]])
        regions = RegionSet("edges", [square], ["sq"])
        t = np.linspace(0, 1, 500)
        # Points along each edge of the square.
        edges = []
        ring = np.vstack([square.exterior, square.exterior[:1]])
        for a, b in zip(ring[:-1], ring[1:]):
            edges.append(a[None, :] * (1 - t)[:, None]
                         + b[None, :] * t[:, None])
        pts = np.vstack(edges)
        table = PointTable.from_arrays(pts[:, 0], pts[:, 1])
        vp = Viewport.fit(BBox(0, 0, 100, 100), 64)
        got = accurate_raster_join(table, regions,
                                   SpatialAggregation.count(), vp)
        want = naive_join(table, regions, SpatialAggregation.count())
        _assert_equal(got, want)

    def test_points_on_pixel_grid(self):
        """Adversarial: points exactly at pixel corners/centers."""
        regions = RegionSet("one", [regular_polygon(50, 50, 33.3, 7)])
        vp = Viewport(BBox(0, 0, 100, 100), 50, 50)  # pixel = 2x2
        xs = np.arange(0, 100, 2.0)  # corners
        xx, yy = np.meshgrid(xs, xs)
        pts = np.column_stack([xx.ravel(), yy.ravel()])
        centers = pts + 1.0  # centers
        allpts = np.vstack([pts, centers])
        table = PointTable.from_arrays(allpts[:, 0], allpts[:, 1])
        got = accurate_raster_join(table, regions,
                                   SpatialAggregation.count(), vp)
        want = naive_join(table, regions, SpatialAggregation.count())
        _assert_equal(got, want)

    def test_boundary_clustered_points(self, simple_regions):
        """Adversarial: points sampled near region boundaries only."""
        gen = np.random.default_rng(3)
        pts = []
        for geom in simple_regions.geometries:
            for ring in geom.rings():
                closed = np.vstack([ring, ring[:1]])
                for a, b in zip(closed[:-1], closed[1:]):
                    t = gen.uniform(0, 1, 60)[:, None]
                    base = a[None, :] * (1 - t) + b[None, :] * t
                    jitter = gen.normal(0, 0.3, size=base.shape)
                    pts.append(base + jitter)
        pts = np.vstack(pts)
        table = PointTable.from_arrays(pts[:, 0], pts[:, 1])
        vp = Viewport.fit(BBox(-5, -5, 105, 105), 80)
        got = accurate_raster_join(table, simple_regions,
                                   SpatialAggregation.count(), vp)
        want = naive_join(table, simple_regions,
                          SpatialAggregation.count())
        _assert_equal(got, want)

    def test_empty_filter_result(self, simple_regions):
        table = _table(1000, seed=4)
        query = SpatialAggregation.count(F("fare") > 1e12)
        vp = Viewport.fit(simple_regions.bbox, 64)
        got = accurate_raster_join(table, simple_regions, query, vp)
        assert (got.values == 0).all()

    @pytest.mark.parametrize("query", [SpatialAggregation.min_of("fare"),
                                       SpatialAggregation.max_of("fare")],
                             ids=["min", "max"])
    def test_nan_in_partial_cell_poisons_its_region(self, query):
        """A NaN value on a point tested exactly poisons its region, as
        it poisons its canvas pixel on the raster paths."""
        regions = RegionSet("pair", [
            Polygon([[0, 0], [1, 0], [1, 1], [0, 1]]),
            Polygon([[1, 0], [2, 0], [2, 1], [1, 1]])])
        gen = np.random.default_rng(6)
        x, y = gen.uniform(0, 2, 2000), gen.uniform(0, 1, 2000)
        fare = gen.uniform(0, 50, 2000)
        # Just left of the shared edge: a PARTIAL pixel of region 0.
        x[0], y[0], fare[0] = 0.99, 0.5, np.nan
        table = PointTable.from_arrays(x, y, fare=fare)
        vp = Viewport.fit(regions.bbox, 64)
        got = accurate_raster_join(table, regions, query, vp)
        assert got.stats["accurate"]["pip_points_tested"] > 0
        assert np.isnan(got.values[0]) and np.isfinite(got.values[1])
        want = naive_join(table, regions, query)
        assert np.array_equal(got.values, want.values, equal_nan=True)
        bounded = bounded_raster_join(table, regions, query, vp)
        assert np.isnan(bounded.values[0])

    def test_stats_present(self, simple_regions):
        table = _table(1000, seed=5)
        vp = Viewport.fit(simple_regions.bbox, 64)
        got = accurate_raster_join(table, simple_regions,
                                   SpatialAggregation.count(), vp)
        assert got.stats["points_total"] == 1000
        assert "boundary_points_tested" in got.stats

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 10_000), st.integers(10, 160))
    def test_exactness_property(self, seed, resolution):
        """Random shapes x random points x random canvas == naive."""
        gen = np.random.default_rng(seed)
        geoms = []
        for __ in range(gen.integers(1, 5)):
            cx, cy = gen.uniform(10, 90, 2)
            geoms.append(regular_polygon(
                cx, cy, gen.uniform(3, 35), int(gen.integers(3, 12))))
        regions = RegionSet(f"rand{seed}", geoms)
        n = int(gen.integers(10, 3000))
        table = PointTable.from_arrays(
            gen.uniform(0, 100, n), gen.uniform(0, 100, n))
        vp = Viewport.fit(BBox(0, 0, 100, 100), resolution)
        got = accurate_raster_join(table, regions,
                                   SpatialAggregation.count(), vp)
        want = naive_join(table, regions, SpatialAggregation.count())
        _assert_equal(got, want)
