"""Store pyramid and tiled paths: bitwise parity with the serial scans.

A grid-snapped store query fills every missing pyramid block of a frame
in one pass over the surviving partitions.  Its answers are held to two
references: the direct partition scan into one canvas on the *same*
:class:`~repro.core.pyramid.GridViewport` (``_execute_bounded``), and
the in-memory ``pyramid-raster-join`` over ``Dataset.to_table()``.
COUNT/SUM/MIN/MAX must match bitwise (the fixture's fares are
integer-valued), AVG within 1e-12.  The tiled store path is held to the
in-memory tiled join the same way.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import ExecutionPlan, SpatialAggregation, SpatialAggregationEngine
from repro.errors import QueryCancelled
from repro.store import PartitionPruner, build_store
from repro.store.execute import _execute_bounded
from repro.table import Comparison, PointTable

AGGS = [("count", None), ("sum", "fare"), ("min", "fare"), ("max", "fare"),
        ("avg", "fare")]


def assert_match(got, want, agg):
    for name in ("values", "lower", "upper"):
        a, b = getattr(got, name), getattr(want, name)
        if a is None or b is None:
            assert a is None and b is None, name
            continue
        a, b = np.asarray(a), np.asarray(b)
        if agg == "avg":
            np.testing.assert_allclose(a, b, rtol=0, atol=1e-12,
                                       equal_nan=True, err_msg=name)
        else:
            assert np.array_equal(a, b, equal_nan=True), name


def direct(store, regions, query, viewport):
    """``_execute_bounded`` on the very same grid viewport: the serial
    partition scan into one canvas, no blocks involved."""
    plan = ExecutionPlan(table=store, regions=regions, query=query,
                         method="bounded", viewport=viewport)
    return _execute_bounded(SpatialAggregationEngine().ctx, store,
                            PartitionPruner(store), plan,
                            max(viewport.width, viewport.height))


def check_frame(engine, store, reference, regions, query, viewport):
    """Run one store frame and hold it to both references.  The frame
    skips the answer tier (``cache=False``), so a revisit is assembled
    from blocks rather than replayed."""
    got = engine.execute(store, regions, query, viewport=viewport,
                         cache=False)
    assert got.method == "store-pyramid-raster-join"
    assert_match(got, direct(store, regions, query, viewport), query.agg)
    memory = SpatialAggregationEngine().execute(
        reference, regions, query, method="bounded", viewport=viewport)
    assert memory.method == "pyramid-raster-join"
    assert_match(got, memory, query.agg)
    return got


@pytest.fixture(scope="module")
def reference(store):
    return store.to_table()


@pytest.fixture()
def engine():
    return SpatialAggregationEngine(default_resolution=256)


def block_keys(engine) -> list[tuple]:
    return [k for k in engine.ctx.cache.keys() if k[0] == "canvas-block"]


class TestGestureSequence:
    @pytest.mark.parametrize("agg,column", AGGS)
    def test_cold_pan_back_zoom_out_zoom_in(self, engine, store, reference,
                                            simple_regions, agg, column):
        query = SpatialAggregation(agg, column)
        gv = engine.plan_grid_viewport(simple_regions, 256)
        cold = check_frame(engine, store, reference, simple_regions, query,
                           gv)
        assert cold.stats["pyramid"]["scattered"] == \
            cold.stats["pyramid"]["blocks"]
        pan = check_frame(engine, store, reference, simple_regions, query,
                          gv.pan(96, 0))
        assert 0 < pan.stats["pyramid"]["hits"] < pan.stats["pyramid"][
            "blocks"]
        back = check_frame(engine, store, reference, simple_regions, query,
                           gv)
        assert back.stats["pyramid"]["scattered"] == 0
        assert back.stats["store"]["partitions_paged"] == 0
        out = check_frame(engine, store, reference, simple_regions, query,
                          gv.zoom(2.0))
        check_frame(engine, store, reference, simple_regions, query,
                    gv.zoom(2.0).zoom(0.5))
        assert out.stats["pyramid"]["level"] == 1


def test_float_values_fold_in_manifest_order(simple_regions,
                                             tmp_path_factory):
    """Non-integral values make SUM depend on the order each pixel's
    points are added in; the one pass must keep the direct scan's
    (manifest order, row order) bit for bit.  A 64-px canvas in 16-px
    blocks puts ~7 points from several partitions on each pixel."""
    gen = np.random.default_rng(17)
    n = 30_000
    table = PointTable.from_arrays(
        gen.uniform(0, 100, n), gen.uniform(0, 100, n), name="float-pts",
        fare=gen.normal(10.0, 7.0, n))
    store = build_store(table, tmp_path_factory.mktemp("float") / "pts",
                        partition_rows=1_024, grid=4)
    engine = SpatialAggregationEngine(default_resolution=64)
    gv = engine.ctx.plan_grid_viewport(simple_regions, 64, block=16)
    for agg in ("sum", "avg"):
        query = SpatialAggregation(agg, "fare")
        for viewport in (gv, gv.pan(24, 0), gv.zoom(2.0)):
            check_frame(engine, store, store.to_table(), simple_regions,
                        query, viewport)


class TestOnePassPerFrame:
    def test_cold_frame_pages_each_partition_at_most_once(
            self, engine, store, simple_regions):
        gv = engine.plan_grid_viewport(simple_regions, 512)
        got = engine.execute(store, simple_regions,
                             SpatialAggregation("sum", "fare"), viewport=gv)
        assert got.stats["pyramid"]["scattered"] == 16
        partitions = got.stats["store"]["partitions"]
        assert 0 < got.stats["store"]["partitions_paged"] \
            <= partitions["scanned"]

    def test_mixed_missing_kinds(self, engine, store, reference,
                                 simple_regions):
        """Evict one block's ``sum`` plane and another's ``sum`` and
        ``mass``: one scatter serves both, and each block gets only the
        kinds it was missing."""
        query = SpatialAggregation("sum", "fare")
        gv = engine.plan_grid_viewport(simple_regions, 256)
        check_frame(engine, store, reference, simple_regions, query, gv)
        cache = engine.ctx.cache
        by_block = {}
        for key in block_keys(engine):
            by_block.setdefault(key[-2:], {})[key[4]] = key
        (first, second), rest = list(by_block)[:2], list(by_block)[2:]
        kept_mass = cache.peek(by_block[first]["mass"])
        evicted = [by_block[first]["sum"], by_block[second]["sum"],
                   by_block[second]["mass"]]
        with cache._lock:
            for key in evicted:
                cache._bytes -= cache._entries.pop(key).nbytes

        got = check_frame(engine, store, reference, simple_regions, query,
                          gv)
        assert got.stats["pyramid"]["scattered"] == 2
        assert got.stats["pyramid"]["hits"] == len(rest)
        # The first block's cached mass plane was kept, not replaced.
        assert cache.peek(by_block[first]["mass"]) is kept_mass
        assert all(cache.peek(key) is not None for key in evicted)


class TestShapes:
    def test_prune_everything(self, engine, store, reference,
                              simple_regions):
        query = SpatialAggregation(
            "count", None, (Comparison("fare", ">", 1e9),))
        gv = engine.plan_grid_viewport(simple_regions, 256)
        got = check_frame(engine, store, reference, simple_regions, query,
                          gv)
        assert got.stats["store"]["partitions"]["scanned"] == 0
        assert got.stats["store"]["partitions_paged"] == 0
        assert not got.values.any()

    def test_blocks_beyond_the_data_extent(self, engine, store, reference,
                                           simple_regions):
        query = SpatialAggregation("sum", "fare")
        far = engine.plan_grid_viewport(simple_regions, 256).pan(4_096, 0)
        got = check_frame(engine, store, reference, simple_regions, query,
                          far)
        assert got.stats["pyramid"]["scattered"] > 0
        assert got.stats["store"]["partitions_paged"] == 0

    @pytest.mark.parametrize("agg,column", AGGS)
    def test_single_partition(self, store_table, simple_regions,
                              tmp_path_factory, agg, column):
        path = tmp_path_factory.mktemp("one-part") / "pts"
        one = build_store(store_table, path,
                          partition_rows=len(store_table), grid=1)
        assert one.num_partitions == 1
        engine = SpatialAggregationEngine(default_resolution=256)
        gv = engine.plan_grid_viewport(simple_regions, 256)
        got = check_frame(engine, one, one.to_table(), simple_regions,
                          SpatialAggregation(agg, column), gv)
        assert got.stats["store"]["partitions_paged"] == 1

    @pytest.mark.parametrize("agg,column", AGGS)
    def test_tiled_at_2048(self, engine, store, reference, simple_regions,
                           agg, column):
        query = SpatialAggregation(agg, column)
        got = engine.execute(store, simple_regions, query, method="tiled",
                             resolution=2_048)
        want = engine.execute(reference, simple_regions, query,
                              method="tiled", resolution=2_048)
        assert got.method == "store-tiled-bounded-raster-join"
        assert got.stats["tiles"] == 4
        assert_match(got, want, agg)


class _TripAfter:
    """A cancel token whose ``is_set()`` turns true after ``calls``."""

    def __init__(self, calls: int):
        self.calls = calls

    def is_set(self) -> bool:
        self.calls -= 1
        return self.calls < 0


def test_cancel_between_partitions_installs_nothing(store, simple_regions):
    engine = SpatialAggregationEngine(default_resolution=256)
    gv = engine.plan_grid_viewport(simple_regions, 256)
    query = SpatialAggregation("sum", "fare")
    # One check before dispatch, then one per paged partition: the
    # token trips on the fourth partition of the frame's one pass.
    with pytest.raises(QueryCancelled):
        engine.execute(store, simple_regions, query, viewport=gv,
                       cancel=_TripAfter(4))
    assert block_keys(engine) == []

    again = engine.execute(store, simple_regions, query, viewport=gv)
    fresh = SpatialAggregationEngine(default_resolution=256).execute(
        store, simple_regions, query, viewport=gv)
    assert_match(again, fresh, "sum")
    assert again.stats["pyramid"]["scattered"] == \
        again.stats["pyramid"]["blocks"]
