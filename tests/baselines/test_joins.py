"""Tests for the exact grid index join and region assignment."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.baselines import assign_regions, grid_index_join, naive_join
from repro.core import RegionSet, SpatialAggregation
from repro.geometry import Polygon, regular_polygon
from repro.table import (
    Comparison,
    F,
    PointTable,
    TimeRange,
    categorical_from_codes,
    timestamp_column,
)


def _table(n=15_000, seed=0):
    gen = np.random.default_rng(seed)
    return PointTable.from_arrays(
        gen.uniform(0, 100, n), gen.uniform(0, 100, n),
        fare=gen.exponential(10, n),
        t=timestamp_column("t", gen.integers(0, 1000, n)),
        kind=gen.choice(["a", "b"], n))


ALL_QUERIES = [
    SpatialAggregation.count(),
    SpatialAggregation.sum_of("fare"),
    SpatialAggregation.avg_of("fare"),
    SpatialAggregation.min_of("fare"),
    SpatialAggregation.max_of("fare"),
    SpatialAggregation.count(F("kind") == "a"),
    SpatialAggregation.sum_of("fare", F("t").time_range(100, 900)),
]


def _assert_equal(a, b):
    both_nan = np.isnan(a.values) & np.isnan(b.values)
    close = np.isclose(a.values, b.values, rtol=1e-9, atol=1e-6)
    assert (both_nan | close).all()


AGGS = ("count", "sum", "avg", "min", "max")
#: Lattice step: points and vertices sit on multiples of it.
STEP = 0.25


def _lattice(draw, lo=0, hi=40):
    return draw(st.integers(lo, hi)) * STEP


@st.composite
def _lattice_tables(draw) -> PointTable:
    """0-200 points on [0, 10]^2: lattice points, off-lattice points and
    duplicates, with a ``v`` column mixing signs, magnitudes and NaN."""
    n = draw(st.integers(0, 200))
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = gen.integers(0, 41, n) * STEP
    y = gen.integers(0, 41, n) * STEP
    off = gen.random(n) < draw(st.sampled_from([0.0, 0.3]))
    x[off] = gen.uniform(0, 10, int(off.sum()))
    y[off] = gen.uniform(0, 10, int(off.sum()))
    dup = n // 4 if draw(st.booleans()) else 0
    if dup:  # the first rows repeat other rows' coordinates
        src = gen.integers(0, n, dup)
        x[:dup], y[:dup] = x[src], y[src]
    v = gen.normal(0.0, 10.0, n) * 10.0 ** gen.integers(-3, 7, n)
    v[gen.random(n) < draw(st.sampled_from([0.0, 0.05]))] = np.nan
    return PointTable.from_arrays(
        x, y, name="lattice", v=v,
        t=timestamp_column("t", gen.integers(0, 10, n)),
        kind=categorical_from_codes("kind", gen.integers(0, 2, n),
                                    ("a", "b")))


@st.composite
def _lattice_regions(draw, table: PointTable) -> RegionSet:
    """1-4 lattice rectangles and triangles; optionally one rectangle
    whose max edges are the table bbox's max edges."""
    geoms = []
    for _ in range(draw(st.integers(1, 4))):
        x0, y0 = _lattice(draw, 0, 36), _lattice(draw, 0, 36)
        if draw(st.booleans()):
            x1 = x0 + _lattice(draw, 1, 12)
            y1 = y0 + _lattice(draw, 1, 12)
            geoms.append(Polygon([[x0, y0], [x1, y0], [x1, y1], [x0, y1]]))
        else:
            x1, y1 = _lattice(draw), _lattice(draw)
            x2, y2 = _lattice(draw), _lattice(draw)
            if (x1 - x0) * (y2 - y0) == (x2 - x0) * (y1 - y0):
                continue  # collinear: no area
            geoms.append(Polygon([[x0, y0], [x1, y1], [x2, y2]]))
    if len(table) and draw(st.booleans()):
        box = table.bbox
        x0 = max(box.xmax - _lattice(draw, 1, 12), box.xmin - 1.0)
        y0 = max(box.ymax - _lattice(draw, 1, 12), box.ymin - 1.0)
        geoms.append(Polygon([[x0, y0], [box.xmax, y0],
                              [box.xmax, box.ymax], [x0, box.ymax]]))
    if not geoms:
        geoms.append(Polygon([[0, 0], [10, 0], [10, 10], [0, 10]]))
    return RegionSet("lattice", geoms)


@st.composite
def _filters(draw):
    kind = draw(st.sampled_from(["v", "time", "kind"]))
    if kind == "v":
        return Comparison("v", draw(st.sampled_from(("<", ">=", "!="))),
                          draw(st.sampled_from([-1.0, 0.0, 5.0])))
    if kind == "time":
        start = draw(st.integers(0, 9))
        return TimeRange("t", start, start + draw(st.integers(0, 5)))
    return Comparison("kind", "==", draw(st.sampled_from(["a", "b"])))


class TestIndexJoinsMatchNaive:
    @pytest.mark.parametrize("query", ALL_QUERIES)
    def test_grid_join(self, simple_regions, query):
        table = _table()
        got = grid_index_join(table, simple_regions, query)
        want = naive_join(table, simple_regions, query)
        _assert_equal(got, want)
        assert got.exact

    def test_grid_resolution_irrelevant(self, simple_regions):
        table = _table(seed=1)
        query = SpatialAggregation.count()
        results = [grid_index_join(table, simple_regions, query,
                                   grid_resolution=res).values
                   for res in (4, 32, 256)]
        assert (results[0] == results[1]).all()
        assert (results[1] == results[2]).all()

    def test_prebuilt_index_reused(self, simple_regions):
        from repro.index import PointGridIndex

        table = _table(2000, seed=2)
        index = PointGridIndex(table.x, table.y, table.bbox, nx=32, ny=32)
        got = grid_index_join(table, simple_regions,
                              SpatialAggregation.count(), index=index)
        want = naive_join(table, simple_regions, SpatialAggregation.count())
        _assert_equal(got, want)

    def test_stats_report_candidates(self, simple_regions):
        table = _table(2000, seed=3)
        got = grid_index_join(table, simple_regions,
                              SpatialAggregation.count())
        assert got.stats["candidates_tested"] >= got.values.sum()

    @settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(st.data())
    def test_join_equivalence_property(self, data):
        """The grid join against the naive scan, on lattice geometry.

        Points and polygon vertices share a quarter-unit lattice, so
        points land on edges, on vertices and on the table bbox's max
        edge (where the grid clamps into its last cell).  COUNT, MIN
        and MAX fold the same values and must agree bitwise; SUM and
        AVG fold them in cell order rather than row order, so they
        agree to 1e-12 of the region's sum of |v|.
        """
        table = data.draw(_lattice_tables())
        regions = data.draw(_lattice_regions(table))
        agg = data.draw(st.sampled_from(AGGS))
        filters = data.draw(st.lists(_filters(), max_size=2))
        query = SpatialAggregation(agg, None if agg == "count" else "v",
                                   tuple(filters))
        cells = data.draw(st.integers(1, 16))

        got = grid_index_join(table, regions, query,
                              grid_resolution=cells).values
        want = naive_join(table, regions, query).values
        if agg in ("count", "min", "max"):
            np.testing.assert_array_equal(got, want)
            return
        np.testing.assert_array_equal(np.isnan(got), np.isnan(want))
        mask = query.filter_mask(table)
        v = np.abs(table.column("v").values)
        for gid, geom in enumerate(regions.geometries):
            if np.isnan(want[gid]):
                continue
            inside = mask & geom.contains_points(table.xy)
            scale = v[inside].sum()
            if agg == "avg":
                scale /= inside.sum()
            assert abs(got[gid] - want[gid]) <= 1e-12 * scale, (
                gid, got[gid], want[gid])


class TestAssignRegions:
    def test_labels_match_geometry(self, simple_regions):
        table = _table(3000, seed=4)
        labels = assign_regions(table, simple_regions)
        xy = table.xy
        for gid, geom in enumerate(simple_regions.geometries):
            inside = geom.contains_points(xy)
            assert (labels[inside] == gid).all()
        unassigned = labels == -1
        for geom in simple_regions.geometries:
            assert not geom.contains_points(xy[unassigned]).any()

    def test_label_counts_match_naive(self, simple_regions):
        table = _table(3000, seed=5)
        labels = assign_regions(table, simple_regions)
        want = naive_join(table, simple_regions, SpatialAggregation.count())
        for gid in range(len(simple_regions)):
            assert (labels == gid).sum() == want.values[gid]

    def test_empty_table(self, simple_regions):
        empty = PointTable([], [])
        assert len(assign_regions(empty, simple_regions)) == 0

    def test_overlap_lowest_id_wins(self):
        a = regular_polygon(50, 50, 20, 8)
        b = regular_polygon(50, 50, 20, 8)  # identical
        regions = RegionSet("overlap", [a, b])
        table = PointTable.from_arrays([50.0], [50.0])
        labels = assign_regions(table, regions)
        assert labels[0] == 0
