"""Store-backed pyramid assembly: bitwise parity with the direct scan.

The contract mirrors the in-memory one: a query against an opened
store with a :class:`GridViewport` assembles its canvases from cached
per-block partials — paging only the partitions each uncovered block's
padded bbox can touch — and the answer is *bitwise identical* to the
direct out-of-core scan, which in turn matches the in-memory backend.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import SpatialAggregation, SpatialAggregationEngine
from repro.core.pyramid import Viewport
from repro.table import Comparison

AGGS = [("count", None), ("sum", "fare"), ("min", "fare"), ("max", "fare")]


def _plain(gv) -> Viewport:
    """The same window as a plain Viewport — routes to the direct scan."""
    return Viewport(gv.bbox, gv.width, gv.height)


def _ladder(gv):
    """A pan/zoom gesture ladder: revisit-heavy, like a real session."""
    steps = [gv]
    steps.append(steps[-1].pan(48, 0))
    steps.append(steps[-1].pan(0, -32))
    steps.append(steps[-1].zoom(2.0))
    steps.append(steps[-1].zoom(0.5))
    steps.append(steps[-1].pan(-48, 32))
    return steps


def _assert_bitwise(got, want):
    for name in ("values", "lower", "upper"):
        a, b = getattr(got, name), getattr(want, name)
        if a is None or b is None:
            assert a is None and b is None, name
            continue
        assert np.array_equal(np.asarray(a), np.asarray(b),
                              equal_nan=True), name


@pytest.fixture()
def fresh_engine():
    """A private engine per test: block-tier counters start at zero."""
    return SpatialAggregationEngine(default_resolution=256)


class TestStoreAssembledParity:
    @pytest.mark.parametrize("agg,column", AGGS)
    def test_ladder_matches_direct_scan(self, fresh_engine, store,
                                        simple_regions, agg, column):
        engine = fresh_engine
        query = SpatialAggregation(agg, column)
        gv = engine.plan_grid_viewport(simple_regions, 256)
        for step in _ladder(gv):
            got = engine.execute(store, simple_regions, query,
                                 viewport=step)
            want = engine.execute(store, simple_regions, query,
                                  viewport=_plain(step))
            assert got.method == "store-pyramid-raster-join"
            assert want.method == "store-bounded-raster-join"
            _assert_bitwise(got, want)

    def test_avg_ladder_close(self, fresh_engine, store, simple_regions):
        engine = fresh_engine
        query = SpatialAggregation("avg", "fare")
        gv = engine.plan_grid_viewport(simple_regions, 256)
        for step in _ladder(gv):
            got = engine.execute(store, simple_regions, query,
                                 viewport=step)
            want = engine.execute(store, simple_regions, query,
                                  viewport=_plain(step))
            np.testing.assert_allclose(got.values, want.values,
                                       rtol=0, atol=1e-12)

    def test_filtered_matches_in_memory_direct(self, fresh_engine, store,
                                               simple_regions):
        """Assembled store answers match the *in-memory* backend too —
        the store path introduces no scan-order or pruning drift."""
        engine = fresh_engine
        reference = store.to_table()
        filters = (Comparison("fare", ">", 10.0),
                   Comparison("kind", "==", "a"))
        query = SpatialAggregation("sum", "fare", filters)
        gv = engine.plan_grid_viewport(simple_regions, 256)
        for step in _ladder(gv):
            got = engine.execute(store, simple_regions, query,
                                 viewport=step)
            want = engine.execute(reference, simple_regions, query,
                                  method="bounded", viewport=_plain(step))
            _assert_bitwise(got, want)

    def test_warm_gestures_reuse_blocks(self, fresh_engine, store,
                                        simple_regions):
        engine = fresh_engine
        query = SpatialAggregation.count()
        gv = engine.plan_grid_viewport(simple_regions, 256)
        cold = engine.execute(store, simple_regions, query, viewport=gv)
        blocks = cold.stats["cache"]["blocks"]
        assert blocks["misses"] > 0
        assert blocks["hits"] == 0
        # Pan back and forth: the revisited window is fully resident.
        # cache=False: the blocks answer, not the stored answer.
        back = engine.execute(store, simple_regions, query,
                              viewport=gv.pan(48, 0).pan(-48, 0),
                              cache=False)
        blocks = back.stats["cache"]["blocks"]
        assert blocks["hits"] > 0
        assert blocks["reuse_fraction"] == 1.0
        # A fully-assembled gesture pages nothing and scans no rows.
        assert back.stats["store"]["partitions_paged"] == 0
        assert back.stats["points_after_filter"] == 0

    def test_zoom_out_never_rescans_covered_blocks(self, fresh_engine,
                                                   store, simple_regions):
        """COUNT zoom-out derives coarse blocks from resident children
        instead of re-paging partitions."""
        engine = fresh_engine
        query = SpatialAggregation.count()
        gv = engine.plan_grid_viewport(simple_regions, 256)
        engine.execute(store, simple_regions, query, viewport=gv)
        out = engine.execute(store, simple_regions, query,
                             viewport=gv.zoom(2.0))
        blocks = out.stats["cache"]["blocks"]
        assert blocks["derived"] > 0
        want = engine.execute(store, simple_regions, query,
                              viewport=_plain(gv.zoom(2.0)))
        _assert_bitwise(out, want)

    def test_store_sums_never_derive(self, fresh_engine, store,
                                     simple_regions):
        """Out-of-core SUM blocks are scattered, not derived: without a
        full scan there is no proof the column is integral, so derived
        sums could reassociate floats.  Parity must still hold."""
        engine = fresh_engine
        query = SpatialAggregation("sum", "fare")
        gv = engine.plan_grid_viewport(simple_regions, 256)
        engine.execute(store, simple_regions, query, viewport=gv)
        out = engine.execute(store, simple_regions, query,
                             viewport=gv.zoom(2.0))
        assert out.stats["cache"]["blocks"]["derived"] == 0
        want = engine.execute(store, simple_regions, query,
                              viewport=_plain(gv.zoom(2.0)))
        _assert_bitwise(out, want)
