"""Interval classification (FULL / PARTIAL / EMPTY) property tests and
parity of the interval-driven accurate join with the naive join.

Two claims under test:

* **Classification is sound.**  Every point whose pixel a polygon
  classifies FULL is inside the polygon; every point in an EMPTY pixel
  is outside.  Points sampled exactly on polygon boundaries land only
  in PARTIAL pixels.  Checked on randomized star polygons.
* **The join is exact.**  ``accurate_raster_join`` (run gather plus the
  batched refine) equals ``naive_join``: COUNT/MIN/MAX bitwise, SUM/AVG
  within 1e-12 relative (the run gather reassociates float sums), and
  the store-backed bounded path stays bitwise equal to the in-memory one
  under the kernel dispatch layer.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import naive_join
from repro.core import (
    RegionSet,
    SpatialAggregation,
    SpatialAggregationEngine,
    accurate_raster_join,
)
from repro.core.accurate import _candidate_pairs
from repro.geometry import BBox, Polygon
from repro.kernels import numpy_impl
from repro.raster import Viewport, build_fragment_table
from repro.store import build_store
from repro.table import PointTable, timestamp_column

AGGREGATES = [
    SpatialAggregation.count(),
    SpatialAggregation.sum_of("fare"),
    SpatialAggregation.avg_of("fare"),
    SpatialAggregation.min_of("fare"),
    SpatialAggregation.max_of("fare"),
]
AGG_IDS = ["count", "sum", "avg", "min", "max"]


def _bits(a) -> bytes:
    return np.ascontiguousarray(np.asarray(a)).tobytes()


def _table(n=30_000, seed=0):
    """Float-valued fares on purpose: bitwise parity must hold even for
    folds that are order-sensitive in floating point."""
    gen = np.random.default_rng(seed)
    return PointTable.from_arrays(
        gen.uniform(0, 100, n), gen.uniform(0, 100, n),
        fare=gen.exponential(10, n),
        t=timestamp_column("t", gen.integers(0, 1000, n)))


def _star(gen) -> Polygon:
    """A random simple (star-shaped) polygon inside [0, 100]^2."""
    k = int(gen.integers(5, 13))
    angles = np.sort(gen.uniform(0, 2 * np.pi, k))
    radii = gen.uniform(5, 28, k)
    cx, cy = gen.uniform(30, 70, 2)
    xs = cx + radii * np.cos(angles)
    ys = cy + radii * np.sin(angles)
    return Polygon(np.column_stack([xs, ys]).tolist())


def _pixels_of_runs(starts, lengths) -> np.ndarray:
    return numpy_impl.expand_ranges(starts, lengths)


class TestIntervalProperties:
    @given(seed=st.integers(0, 10**6))
    @settings(max_examples=15, deadline=None)
    def test_full_cells_fully_covered_empty_cells_empty(self, seed):
        """The core soundness property, on randomized polygons: any
        point in a FULL pixel is inside; any point in an EMPTY pixel is
        outside.  (PARTIAL pixels promise nothing.)"""
        gen = np.random.default_rng(seed)
        geom = _star(gen)
        vp = Viewport.fit(BBox(0, 0, 100, 100), 64)
        iv = build_fragment_table([geom], vp).intervals
        full = np.zeros(vp.num_pixels, dtype=bool)
        full[_pixels_of_runs(iv.full_starts, iv.full_lengths)] = True
        part = np.zeros(vp.num_pixels, dtype=bool)
        part[_pixels_of_runs(iv.partial_starts, iv.partial_lengths)] = True
        assert not (full & part).any()

        px = gen.uniform(0, 100, 4_000)
        py = gen.uniform(0, 100, 4_000)
        ids, valid = vp.pixel_ids_of(px, py)
        assert valid.all()
        inside = geom.contains_points(np.column_stack([px, py]))
        in_full = full[ids]
        in_empty = ~full[ids] & ~part[ids]
        assert inside[in_full].all(), "FULL cell contained an outside point"
        assert not inside[in_empty].any(), "EMPTY cell contained an inside point"

    @given(seed=st.integers(0, 10**6))
    @settings(max_examples=15, deadline=None)
    def test_boundary_samples_land_in_partial_cells(self, seed):
        """Points sampled exactly on polygon edges never fall in a FULL
        (or EMPTY) cell.  The ``a + t*(b-a)`` lerp keeps samples on
        axis-aligned edges exactly on the edge."""
        gen = np.random.default_rng(seed)
        geom = _star(gen)
        vp = Viewport.fit(BBox(0, 0, 100, 100), 64)
        iv = build_fragment_table([geom], vp).intervals
        full = np.zeros(vp.num_pixels, dtype=bool)
        full[_pixels_of_runs(iv.full_starts, iv.full_lengths)] = True
        part = np.zeros(vp.num_pixels, dtype=bool)
        part[_pixels_of_runs(iv.partial_starts, iv.partial_lengths)] = True

        ring = np.asarray(geom.exterior, dtype=np.float64)
        t = gen.uniform(0, 1, (40, 1))
        for a, b in zip(ring, np.roll(ring, -1, axis=0)):
            pts = a[None, :] + t * (b - a)[None, :]
            ids, valid = vp.pixel_ids_of(pts[:, 0], pts[:, 1])
            ids = ids[valid]
            assert not full[ids].any()
            assert part[ids].all()

    def test_intervals_reconstruct_fragment_pixels(self, simple_regions):
        """Runs are a lossless re-encoding of the fragment table:
        FULL == interior, PARTIAL == boundary, per polygon."""
        vp = Viewport.fit(simple_regions.bbox, 128)
        table = build_fragment_table(list(simple_regions), vp)
        iv = table.intervals
        assert iv.full_pixels == len(table.interior_pixels)
        assert iv.partial_pixels == len(table.boundary_pixels)
        fo, po = iv.full_offsets, iv.partial_offsets
        for gid in range(len(simple_regions)):
            got_full = _pixels_of_runs(
                iv.full_starts[fo[gid]:fo[gid + 1]],
                iv.full_lengths[fo[gid]:fo[gid + 1]])
            want_full = np.sort(
                table.interior_pixels[table.interior_polys == gid])
            assert np.array_equal(got_full, want_full)
            got_part = _pixels_of_runs(
                iv.partial_starts[po[gid]:po[gid + 1]],
                iv.partial_lengths[po[gid]:po[gid + 1]])
            want_part = np.sort(
                table.boundary_pixels[table.boundary_polys == gid])
            assert np.array_equal(got_part, want_part)

    def test_runs_never_cross_row_boundaries(self, simple_regions):
        """A run is a contiguous x-interval inside one scanline row."""
        vp = Viewport.fit(simple_regions.bbox, 96)
        iv = build_fragment_table(list(simple_regions), vp).intervals
        for starts, lengths in ((iv.full_starts, iv.full_lengths),
                                (iv.partial_starts, iv.partial_lengths)):
            assert (lengths > 0).all()
            assert np.array_equal(starts // vp.width,
                                  (starts + lengths - 1) // vp.width)

    def test_candidates_are_partial_cell_points(self, simple_regions):
        """Candidates: points in any region's PARTIAL pixel.  Pairs: per
        region, the candidates in its own PARTIAL pixels, nothing else."""
        vp = Viewport.fit(simple_regions.bbox, 128)
        table = build_fragment_table(list(simple_regions), vp)
        pix, valid = vp.pixel_ids_of(*np.random.default_rng(2).uniform(
            0, 100, (2, 20_000)))
        pix = pix[valid]
        candidates, pair_cand, pair_region = _candidate_pairs(table, pix)
        np.testing.assert_array_equal(
            candidates, np.flatnonzero(np.isin(pix, table.boundary_pixels)))
        for gid in range(len(simple_regions)):
            own = table.boundary_pixels[table.boundary_polys == gid]
            got = candidates[pair_cand[pair_region == gid]]
            want = np.flatnonzero(np.isin(pix, own))
            np.testing.assert_array_equal(np.sort(got), want)

    def test_gridline_aligned_square_is_exact(self):
        """On an integer-aligned grid a gridline-aligned square gets a
        one-pixel PARTIAL frame and a fully FULL interior — and the
        accurate join is still exact for points on the edges."""
        vp = Viewport(BBox(0, 0, 100, 100), 100, 100)
        square = Polygon([[20, 20], [40, 20], [40, 40], [20, 40]])
        iv = build_fragment_table([square], vp).intervals
        assert iv.full_pixels == 19 * 19
        assert iv.partial_pixels == 4 * 21 - 4
        edge = np.arange(20.0, 41.0)
        pts = np.concatenate([
            np.column_stack([edge, np.full_like(edge, 20.0)]),
            np.column_stack([edge, np.full_like(edge, 40.0)]),
            np.column_stack([np.full_like(edge, 20.0), edge]),
            np.column_stack([np.full_like(edge, 40.0), edge]),
        ])
        table = PointTable.from_arrays(pts[:, 0], pts[:, 1],
                                       fare=np.ones(len(pts)))
        regions = RegionSet("sq", [square])
        got = accurate_raster_join(table, regions,
                                   SpatialAggregation.count(), vp)
        want = naive_join(table, regions, SpatialAggregation.count())
        assert np.array_equal(got.values, want.values)


def _assert_matches_naive(got, want, agg: str) -> None:
    """COUNT/MIN/MAX bitwise; SUM/AVG within 1e-12 relative."""
    if agg in ("count", "min", "max"):
        assert _bits(got) == _bits(want)
    else:
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)


class TestNaiveParity:
    @pytest.fixture(scope="class")
    def setup(self, simple_regions):
        table = _table()
        vp = Viewport.fit(simple_regions.bbox, 128)
        fragments = build_fragment_table(list(simple_regions), vp)
        return table, simple_regions, vp, fragments

    @pytest.mark.parametrize("query", AGGREGATES, ids=AGG_IDS)
    def test_accurate_matches_naive(self, setup, query):
        table, regions, vp, fragments = setup
        got = accurate_raster_join(table, regions, query, vp,
                                   fragments=fragments)
        want = naive_join(table, regions, query)
        _assert_matches_naive(got.values, want.values, query.agg)
        assert got.exact

    def test_engine_exact_matches_naive(self, simple_regions):
        table = _table(seed=5)
        engine = SpatialAggregationEngine(default_resolution=128)
        query = SpatialAggregation.sum_of("fare")
        r = engine.execute(table, simple_regions, query, exact=True,
                           resolution=128)
        _assert_matches_naive(
            r.values, naive_join(table, simple_regions, query).values, "sum")


class TestBitwiseParity:
    def test_store_backed_bounded_bitwise(self, simple_regions, tmp_path):
        """The kernel-dispatched store scatter keeps the out-of-core
        bounded path bitwise equal to in-memory (COUNT and an
        integer-valued SUM are order-insensitive)."""
        gen = np.random.default_rng(77)
        n = 20_000
        table = PointTable.from_arrays(
            gen.uniform(0, 100, n), gen.uniform(0, 100, n), name="st",
            fare=np.floor(gen.exponential(12.0, n)),
            t=timestamp_column("t", gen.integers(0, 7_200, n)))
        store = build_store(table, tmp_path / "pts", partition_rows=2_048,
                            grid=4, time_column="t")
        engine = SpatialAggregationEngine(default_resolution=128)
        for query in (SpatialAggregation.count(),
                      SpatialAggregation.sum_of("fare")):
            got = engine.execute(store, simple_regions, query,
                                 resolution=128)
            want = engine.execute(store.to_table(), simple_regions, query,
                                  method="bounded", resolution=128)
            assert _bits(got.values) == _bits(want.values)


class TestCounters:
    def test_accurate_stats_counters(self, simple_regions):
        table = _table(seed=9)
        vp = Viewport.fit(simple_regions.bbox, 128)
        fragments = build_fragment_table(list(simple_regions), vp)
        r = accurate_raster_join(table, simple_regions,
                                 SpatialAggregation.count(), vp,
                                 fragments=fragments)
        acc = r.stats["accurate"]
        iv = fragments.intervals
        assert acc["full_pixels"] == iv.full_pixels
        assert acc["partial_pixels"] == iv.partial_pixels
        assert acc["full_runs"] == iv.num_full_runs
        assert acc["partial_runs"] == iv.num_partial_runs
        # Interval credit: most in-viewport points never reach PIP.
        assert acc["pip_points_skipped"] > 0
        assert acc["pip_points_tested"] < len(table)
        assert acc["pip_points_tested"] == acc["pairs"] >= acc["candidates"]
        assert (acc["pip_points_skipped"]
                == r.stats["points_in_viewport"] - acc["candidates"])
        assert acc["edges_tested"] >= acc["pairs"] * 3
