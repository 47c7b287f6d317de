"""The point pipeline: sources, sinks, project and the one fold."""

from __future__ import annotations

import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import SpatialAggregation, make_tiles
from repro.core.context import ExecutionContext
from repro.core.pipeline import (
    Blocks,
    DatasetSource,
    TableSource,
    Window,
    fill,
    fold,
    new_canvases,
)
from repro.core.pyramid import CanvasGrid
from repro.errors import QueryCancelled
from repro.geometry import BBox
from repro.raster import Viewport
from repro.store import build_store
from repro.table import F, PointTable


def _fresh(kinds, size):
    fills = {"count": 0.0, "sum": 0.0, "min": np.inf, "max": -np.inf}
    return {k: np.full(size, fills[k]) for k in kinds}


def _table(n=5_000, seed=0, fare=None):
    gen = np.random.default_rng(seed)
    if fare is None:
        fare = gen.normal(5.0, 4.0, n)
    return PointTable.from_arrays(gen.uniform(0, 100, len(fare)),
                                  gen.uniform(0, 100, len(fare)), fare=fare)


class TestFold:
    def test_min_max(self):
        canvases = _fresh(("min", "max"), 3)
        fold(canvases, np.array([0, 0, 2]), np.array([5.0, 3.0, 7.0]))
        mn, mx = canvases["min"], canvases["max"]
        assert mn[0] == 3.0 and mx[0] == 5.0
        assert mn[1] == np.inf and mx[1] == -np.inf
        assert mn[2] == 7.0 and mx[2] == 7.0

    def test_nan_poisons_pixel(self):
        canvases = _fresh(("min", "max"), 3)
        fold(canvases, np.array([1, 1, 1]), np.array([3.0, np.nan, 1.0]))
        assert np.isnan(canvases["min"][1]) and np.isinf(canvases["min"][0])
        assert np.isnan(canvases["max"][1])

    def test_empty_input(self):
        canvases = _fresh(("count", "sum", "min", "max"), 2)
        fold(canvases, np.empty(0, dtype=np.int64), np.empty(0))
        assert canvases["count"].tolist() == [0, 0]
        assert canvases["sum"].tolist() == [0, 0]
        assert (canvases["min"] == np.inf).all()
        assert (canvases["max"] == -np.inf).all()

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 19),
                              st.floats(-100, 100)), max_size=200))
    def test_matches_groupby(self, pairs):
        ids = np.array([p[0] for p in pairs], dtype=np.int64)
        vals = np.array([p[1] for p in pairs])
        canvases = _fresh(("count", "min", "max"), 20)
        fold(canvases, ids, vals)
        for pix in range(20):
            sel = vals[ids == pix]
            assert canvases["count"][pix] == len(sel)
            assert canvases["min"][pix] == (sel.min() if len(sel) else np.inf)
            assert canvases["max"][pix] == (sel.max() if len(sel)
                                            else -np.inf)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10**6), chunks=st.integers(1, 6))
    def test_chunked_fold_is_one_bincount(self, seed, chunks):
        """The bitwise argument: chaining the fold over any chunking of
        the rows equals one ``np.bincount`` over all of them."""
        gen = np.random.default_rng(seed)
        n, size = 3_000, 64
        pix = gen.integers(0, size, n)
        vals = gen.normal(0.0, 1e3, n)
        canvases = _fresh(("count", "sum"), size)
        for part in np.array_split(np.arange(n), chunks):
            fold(canvases, pix[part], vals[part])
        want_sum = np.bincount(pix, weights=vals, minlength=size)
        want_count = np.bincount(pix, minlength=size).astype(np.float64)
        assert canvases["sum"].tobytes() == want_sum.tobytes()
        assert canvases["count"].tobytes() == want_count.tobytes()


class TestMassRule:
    def test_nonnegative_table_aliases_mass_to_sum(self):
        table = _table(fare=np.arange(10.0))
        source = TableSource(table)
        canvases = new_canvases(source, SpatialAggregation.sum_of("fare"),
                                ("sum", "mass"), 4)
        assert canvases["mass"] is canvases["sum"]
        fold(canvases, np.array([0, 0, 3]), np.array([1.0, 2.0, 3.0]))
        assert canvases["sum"].tolist() == [3.0, 0.0, 0.0, 3.0]

    @pytest.mark.parametrize("bad", [-1.0, np.nan])
    def test_signed_or_nan_folds_mass_apart(self, bad):
        fare = np.arange(10.0)
        fare[4] = bad
        source = TableSource(_table(fare=fare))
        canvases = new_canvases(source, SpatialAggregation.sum_of("fare"),
                                ("sum", "mass"), 2)
        assert canvases["mass"] is not canvases["sum"]
        fold(canvases, np.array([0, 0]), np.array([-2.0, 3.0]))
        assert canvases["sum"][0] == 1.0 and canvases["mass"][0] == 5.0

    def test_proof_is_read_once_per_table_and_column(self, monkeypatch):
        """With a context the proof is cached, like ``integral``: a
        later source over the same table reads no values."""
        table = _table(fare=np.arange(10.0))
        ctx = ExecutionContext()
        query = SpatialAggregation.sum_of("fare")
        assert TableSource(table, ctx).nonnegative(query)
        monkeypatch.setattr(SpatialAggregation, "values_for",
                            lambda *args: pytest.fail("column re-read"))
        assert TableSource(table, ctx).nonnegative(query)


class TestSinks:
    def test_blocks_match_grid_viewport_pixels(self):
        """A point lands in the block-plane pixel the grid viewport puts
        it in: one transform for both.  The L-shaped list leaves block
        (1, 1) of its bounding rectangle unlisted, and no point may fold
        into it."""
        grid = CanvasGrid(0.0, 0.0, 0.5, 0.5, block=16)
        level = 1
        blocks = [(0, 0), (2, 1), (1, 0)]
        sink = Blocks(grid, level, blocks)
        gen = np.random.default_rng(3)
        x, y = gen.uniform(-5, 60, 4_000), gen.uniform(-5, 60, 4_000)
        pix, inside = sink.locate(x, y)
        canvas = np.zeros(sink.size)
        np.add.at(canvas, pix[inside], 1.0)
        vp = grid.viewport(level, 0, 0, 48, 32)
        ix, iy = vp.pixel_of(x, y)
        for slot, (bx, by) in enumerate(blocks):
            own = (ix // 16 == bx) & (iy // 16 == by)
            want = np.zeros((16, 16))
            np.add.at(want, (iy[own] % 16, ix[own] % 16), 1.0)
            assert own.any()
            assert np.array_equal(sink.plane(canvas, slot), want)
        unlisted = (ix // 16 == 1) & (iy // 16 == 1)
        assert unlisted.any() and not inside[unlisted].any()
        listed = sum(((ix // 16 == bx) & (iy // 16 == by)).sum()
                     for bx, by in blocks)
        assert inside.sum() == listed

    def test_tiles_partition_the_canvas(self):
        table = _table()
        vp = Viewport.fit(BBox(0, 0, 100, 100), 96)
        query = SpatialAggregation.sum_of("fare")
        whole = fill(TableSource(table), query, Window(vp), ("count",))
        counts = np.zeros(vp.num_pixels)
        for tile in make_tiles(vp, 40):
            part = fill(TableSource(table), query, Window(vp, tile),
                        ("count",))
            tile_vp, col0, row0 = tile
            plane = part.canvases["count"].reshape(tile_vp.height,
                                                   tile_vp.width)
            counts.reshape(vp.height, vp.width)[
                row0:row0 + tile_vp.height,
                col0:col0 + tile_vp.width] = plane
        assert counts.tobytes() == whole.canvases["count"].tobytes()


class TestSources:
    def test_narrowed_table_equals_full_scan(self):
        table = _table(20_000, seed=5)
        query = SpatialAggregation("sum", "fare", (F("fare") > 4.0,))
        grid = CanvasGrid(0.0, 0.0, 0.25, 0.25, block=32)
        sink = Blocks(grid, 0, [(1, 1), (5, 2), (9, 9)])

        class Unnarrowed(TableSource):
            def chunks(self, query, boxes=None):
                return super().chunks(query, None)

        got = fill(TableSource(table), query, sink, ("sum",))
        want = fill(Unnarrowed(table), query, sink, ("sum",))
        assert got.points == want.points > 0
        assert got.canvases["sum"].tobytes() == \
            want.canvases["sum"].tobytes()

    def test_blocks_beyond_the_table_fold_nothing(self):
        grid = CanvasGrid(0.0, 0.0, 1.0, 1.0, block=16)
        sink = Blocks(grid, 0, [(40, 40), (41, 40)])
        points = fill(TableSource(_table(500)), SpatialAggregation.count(),
                      sink, ("count",))
        assert points.points == 0 and not points.canvases["count"].any()

    def test_dataset_skips_partitions_outside_boxes(self, tmp_path):
        table = _table(4_000, seed=6)
        store = build_store(table, tmp_path / "pts", partition_rows=256,
                            grid=4)
        source = DatasetSource(store, list(range(store.num_partitions)))
        query = SpatialAggregation.count()
        vp = Viewport.fit(BBox(0, 0, 100, 100), 64)
        corner = make_tiles(vp, 16)[0]
        points = fill(source, query, Window(vp, corner), ("count",))
        assert 0 < points.paged < store.num_partitions
        assert source.filtered_count(query) < len(store)

    def test_cancel_before_each_chunk(self, tmp_path):
        table = _table(2_000, seed=7)
        store = build_store(table, tmp_path / "pts", partition_rows=256)
        token = threading.Event()
        source = DatasetSource(store, list(range(store.num_partitions)),
                               cancel=token)
        chunks = source.chunks(SpatialAggregation.count())
        next(chunks)
        token.set()
        with pytest.raises(QueryCancelled):
            next(chunks)
        assert source.paged == 1
