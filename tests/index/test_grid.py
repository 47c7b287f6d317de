"""Tests for uniform grid indexes."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import GeometryError
from repro.geometry import BBox
from repro.index import PointGridIndex

BOX = BBox(0, 0, 100, 100)


def _points(n=2000, seed=0):
    gen = np.random.default_rng(seed)
    return gen.uniform(0, 100, n), gen.uniform(0, 100, n)


def _brute_bbox(x, y, q):
    return np.flatnonzero((x >= q.xmin) & (x <= q.xmax)
                          & (y >= q.ymin) & (y <= q.ymax))


class TestPointGridIndex:
    def test_candidates_superset_of_exact(self):
        x, y = _points()
        idx = PointGridIndex(x, y, BOX, nx=16, ny=16)
        q = BBox(20, 20, 45, 60)
        cand = set(idx.query_bbox(q).tolist())
        exact = set(_brute_bbox(x, y, q).tolist())
        assert exact <= cand

    def test_exact_query_matches_brute_force(self):
        x, y = _points(seed=1)
        idx = PointGridIndex(x, y, BOX, nx=16, ny=16)
        for q in [BBox(0, 0, 100, 100), BBox(10, 10, 10.5, 10.5),
                  BBox(99, 99, 100, 100), BBox(-50, -50, -10, -10)]:
            got = np.sort(idx.query_bbox_exact(q))
            want = _brute_bbox(x, y, q)
            assert (got == want).all()

    def test_all_points_bucketed_once(self):
        x, y = _points(seed=2)
        idx = PointGridIndex(x, y, BOX, nx=8, ny=8)
        everything = idx.query_bbox(BOX)
        assert len(everything) == len(x)
        assert len(set(everything.tolist())) == len(x)

    def test_cell_points_partition(self):
        x, y = _points(200, seed=3)
        idx = PointGridIndex(x, y, BOX, nx=4, ny=4)
        seen = []
        for iy in range(4):
            for ix in range(4):
                seen.extend(idx.cell_points(ix, iy).tolist())
        assert sorted(seen) == list(range(200))

    def test_cell_of_clamps(self):
        x, y = _points(10)
        idx = PointGridIndex(x, y, BOX, nx=4, ny=4)
        assert idx.cell_of(-100, -100) == (0, 0)
        assert idx.cell_of(1e9, 1e9) == (3, 3)

    def test_over_fits_the_points(self):
        x, y = _points(200, seed=3)
        idx = PointGridIndex.over(x, y, cells=8)
        assert (idx.bbox.xmin, idx.bbox.xmax) == (x.min(), x.max())
        assert (idx.bbox.ymin, idx.bbox.ymax) == (y.min(), y.max())
        assert idx.nx == idx.ny == 8
        assert len(idx.query_bbox(BOX)) == 200

    def test_invalid_resolution(self):
        x, y = _points(10)
        with pytest.raises(GeometryError):
            PointGridIndex(x, y, BOX, nx=0)

    @settings(max_examples=30, deadline=None)
    @given(st.floats(0, 90), st.floats(0, 90), st.floats(0.1, 50),
           st.floats(0.1, 50), st.integers(1, 40))
    def test_exact_query_property(self, x0, y0, w, h, res):
        x, y = _points(500, seed=4)
        idx = PointGridIndex(x, y, BOX, nx=res, ny=res)
        q = BBox(x0, y0, x0 + w, y0 + h)
        got = np.sort(idx.query_bbox_exact(q))
        assert (got == _brute_bbox(x, y, q)).all()


def _box(x0, y0, w, h):
    return BBox(x0, y0, x0 + w, y0 + h)


class TestCountBBox:
    """``count_bbox`` is ``len(query_bbox)`` read off the CSR offsets."""

    @settings(max_examples=60, deadline=None)
    @given(st.floats(-150, 150), st.floats(-150, 150), st.floats(0, 200),
           st.floats(0, 200), st.integers(1, 40))
    def test_random_boxes(self, x0, y0, w, h, res):
        x, y = _points(500, seed=5)
        idx = PointGridIndex(x, y, BOX, nx=res, ny=res)
        q = _box(x0, y0, w, h)
        assert idx.count_bbox(q) == len(idx.query_bbox(q))

    def test_disjoint_degenerate_and_partly_outside_boxes(self):
        x, y = _points(seed=6)
        idx = PointGridIndex.over(x, y, cells=16)
        boxes = [
            BBox(-50, -50, -10, -10),       # disjoint, below-left
            BBox(150, 150, 200, 300),        # disjoint, above-right
            BBox(0, 120, 100, 130),          # disjoint in y only
            BBox(40, 40, 40, 40),            # a point
            BBox(10, 0, 10, 100),            # a vertical segment
            BBox(0, 55.5, 100, 55.5),        # a horizontal segment
            BBox(-20, -20, 30, 30),          # partly outside, corner
            BBox(90, -5, 140, 105),          # partly outside, edge
            BBox(-1e9, -1e9, 1e9, 1e9),      # the whole grid and more
        ]
        for q in boxes:
            assert idx.count_bbox(q) == len(idx.query_bbox(q)), q
        assert idx.count_bbox(boxes[-1]) == len(x)
        assert idx.count_bbox(boxes[0]) == 0

    def test_empty_index(self):
        empty = np.empty(0)
        idx = PointGridIndex.over(empty, empty, cells=8)
        for q in (BBox(0, 0, 0, 0), BBox(-1, -1, 1, 1), BBox(5, 5, 9, 9)):
            assert idx.count_bbox(q) == len(idx.query_bbox(q)) == 0
