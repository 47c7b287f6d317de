"""Tests for canvases, blending and the gather join."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ExecutionError
from repro.raster import (
    gather_reduce,
    gather_sum,
    scatter_count,
    scatter_sum,
)


class TestScatter:
    def test_count(self):
        ids = np.array([0, 1, 1, 3])
        canvas = scatter_count(ids, 5)
        assert canvas.tolist() == [1, 2, 0, 1, 0]

    def test_sum(self):
        ids = np.array([0, 1, 1])
        canvas = scatter_sum(ids, np.array([1.0, 2.0, 3.0]), 3)
        assert canvas.tolist() == [1.0, 5.0, 0.0]

    def test_sum_length_mismatch(self):
        with pytest.raises(ExecutionError):
            scatter_sum(np.array([0]), np.array([1.0, 2.0]), 3)

    def test_empty_inputs(self):
        empty = np.empty(0, dtype=np.int64)
        assert scatter_count(empty, 4).tolist() == [0, 0, 0, 0]
        assert scatter_sum(empty, np.empty(0), 2).tolist() == [0, 0]

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 19),
                              st.floats(-100, 100)), max_size=200))
    def test_scatter_matches_groupby(self, pairs):
        ids = np.array([p[0] for p in pairs], dtype=np.int64)
        vals = np.array([p[1] for p in pairs])
        got_sum = scatter_sum(ids, vals, 20)
        for pix in range(20):
            sel = vals[ids == pix]
            assert got_sum[pix] == pytest.approx(
                sel.sum() if len(sel) else 0.0, abs=1e-8)


class TestGather:
    def test_gather_sum_groups(self):
        canvas = np.array([1.0, 2.0, 3.0, 4.0])
        pix = np.array([0, 1, 2, 3])
        groups = np.array([0, 0, 1, 1])
        out = gather_sum(canvas, pix, groups, 2)
        assert out.tolist() == [3.0, 7.0]

    def test_gather_sum_empty(self):
        out = gather_sum(np.zeros(4), np.empty(0, np.int64),
                         np.empty(0, np.int64), 3)
        assert out.tolist() == [0, 0, 0]

    def test_gather_reduce_skips_fill(self):
        canvas = np.array([np.inf, 5.0, 2.0])
        pix = np.array([0, 1, 2])
        groups = np.array([0, 0, 1])
        out = gather_reduce(canvas, pix, groups, 2, np.minimum, np.inf)
        assert out[0] == 5.0  # the inf pixel (no data) is skipped
        assert out[1] == 2.0

    def test_gather_reduce_all_fill(self):
        canvas = np.full(3, np.inf)
        out = gather_reduce(canvas, np.array([0, 1]), np.array([0, 0]),
                            1, np.minimum, np.inf)
        assert out[0] == np.inf

    def test_mismatch_rejected(self):
        with pytest.raises(ExecutionError):
            gather_sum(np.zeros(4), np.array([0]), np.array([0, 1]), 2)
