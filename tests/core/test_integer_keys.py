"""Linear-time integer-key ranks and sorts equal their comparison-sort
references array for array.

``dense_rank`` (the temporal cube's active pixels and column ranks) must
give exactly ``np.unique`` + ``np.searchsorted``; ``stable_argsort``
(radix passes of 16-bit digits) exactly the int64 stable argsort; and
:class:`~repro.index.PointGridIndex`'s CSR (``stable_argsort`` plus
``bincount`` offsets) exactly the int64 stable argsort +
``searchsorted`` it replaced — on both sides of the 16-bit boundary
where NumPy's stable sort stops being a radix sort, and for empty input.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry import BBox
from repro.index import PointGridIndex, dense_rank, stable_argsort


@st.composite
def keyed(draw):
    """(keys, size): keys in ``[0, size)``, possibly empty, possibly
    all one value, sizes from 1 past the 16-bit boundary."""
    size = draw(st.sampled_from([1, 2, 255, 256, 257, 65_536, 65_537])
                | st.integers(1, 2 ** 16 + 1))
    n = draw(st.integers(0, 300))
    if draw(st.booleans()):
        key = draw(st.integers(0, size - 1))
        return np.full(n, key, dtype=np.int64), size
    keys = draw(st.lists(st.integers(0, size - 1), min_size=n,
                         max_size=n))
    return np.asarray(keys, dtype=np.int64), size


def _reference_rank(keys):
    active = np.unique(keys)
    return active, np.searchsorted(active, keys)


class TestDenseRank:
    @settings(max_examples=120, deadline=None)
    @given(keyed())
    def test_equals_unique_and_searchsorted(self, drawn):
        keys, size = drawn
        active, rank = dense_rank(keys, size)
        want_active, want_rank = _reference_rank(keys)
        assert active.dtype == want_active.dtype
        assert np.array_equal(active, want_active)
        assert np.array_equal(rank, want_rank)

    def test_empty_and_edges(self):
        for size in (1, 2, 2 ** 16 + 1):
            active, rank = dense_rank(np.empty(0, dtype=np.int64), size)
            assert len(active) == len(rank) == 0
        keys = np.array([0, 2 ** 16, 0, 2 ** 16], dtype=np.int64)
        active, rank = dense_rank(keys, 2 ** 16 + 1)
        assert active.tolist() == [0, 2 ** 16]
        assert rank.tolist() == [0, 1, 0, 1]


class TestStableArgsort:
    @settings(max_examples=120, deadline=None)
    @given(keyed(), st.sampled_from([np.int64, np.int32, np.uint32]))
    def test_equals_int64_stable_argsort(self, drawn, dtype):
        keys, size = drawn
        got = stable_argsort(keys.astype(dtype), size)
        want = np.argsort(keys, kind="stable")
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2 ** 34), st.integers(0, 500),
           st.integers(0, 2 ** 32 - 1))
    def test_wide_bounds(self, bound_less_one, n, seed):
        bound = bound_less_one + 1
        keys = np.random.default_rng(seed).integers(0, bound, n)
        assert np.array_equal(stable_argsort(keys, bound),
                              np.argsort(keys, kind="stable"))


def _reference_csr(idx):
    """The int64 stable argsort + ``searchsorted`` CSR, from the same
    cell binning the index uses."""
    cx, cy = _cells(idx)
    cell_ids = cy * idx.nx + cx
    order = np.argsort(cell_ids, kind="stable")
    offsets = np.searchsorted(cell_ids[order],
                              np.arange(idx.nx * idx.ny + 1), side="left")
    return order, offsets


def _cells(idx):
    width = max(idx.bbox.width, 1e-300)
    height = max(idx.bbox.height, 1e-300)
    x, y = idx._x, idx._y
    cx = np.clip(((x - idx.bbox.xmin) / width * idx.nx).astype(np.int64),
                 0, idx.nx - 1)
    cy = np.clip(((y - idx.bbox.ymin) / height * idx.ny).astype(np.int64),
                 0, idx.ny - 1)
    return cx, cy


class TestGridCSR:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 400), st.integers(0, 2 ** 32 - 1),
           st.sampled_from([(1, 1), (3, 7), (16, 16), (255, 257),
                            (256, 256), (257, 256), (300, 300)]))
    def test_equals_int64_argsort_reference(self, n, seed, shape):
        nx, ny = shape
        gen = np.random.default_rng(seed)
        x, y = gen.uniform(0, 100, n), gen.uniform(0, 100, n)
        idx = PointGridIndex(x, y, BBox(0, 0, 100, 100), nx=nx, ny=ny)
        order, offsets = _reference_csr(idx)
        assert idx.order.dtype == order.dtype
        assert idx.offsets.dtype == offsets.dtype
        assert np.array_equal(idx.order, order)
        assert np.array_equal(idx.offsets, offsets)

    def test_both_sides_of_the_uint16_boundary(self):
        gen = np.random.default_rng(3)
        x, y = gen.uniform(0, 100, 5000), gen.uniform(0, 100, 5000)
        for nx, ny in ((256, 256), (256, 257), (1024, 1024)):
            idx = PointGridIndex(x, y, BBox(0, 0, 100, 100), nx=nx, ny=ny)
            order, offsets = _reference_csr(idx)
            assert np.array_equal(idx.order, order), (nx, ny)
            assert np.array_equal(idx.offsets, offsets), (nx, ny)

    def test_empty_table(self):
        empty = np.empty(0)
        for cells in (8, 300):
            idx = PointGridIndex.over(empty, empty, cells=cells)
            order, offsets = _reference_csr(idx)
            assert idx.order.dtype == order.dtype and len(idx.order) == 0
            assert np.array_equal(idx.offsets, offsets)
