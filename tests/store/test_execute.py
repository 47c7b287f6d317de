"""Out-of-core execution acceptance: bitwise parity with in-memory.

The engine promise under test: running a query against an opened store
returns *the same answer* as materializing the store and running the
in-memory backend — bitwise for COUNT and SUM, within 1e-12 for AVG —
while scanning only the partitions the zone maps cannot rule out.
"""

import numpy as np
import pytest

from repro.core import (
    ParallelConfig,
    SpatialAggregation,
    SpatialAggregationEngine,
    assembled_bounded_join,
)
from repro.errors import QueryCancelled, QueryError
from repro.obs import Tracer
from repro.store import Dataset
from repro.table import Comparison, TimeRange

AGGS = [("count", None), ("sum", "fare"), ("avg", "fare"),
        ("min", "fare"), ("max", "fare")]


def assert_results_match(got, want, agg):
    exact = agg in ("count", "sum", "min", "max")
    for name in ("values", "lower", "upper"):
        a, b = getattr(got, name), getattr(want, name)
        if a is None or b is None:
            assert a is None and b is None
            continue
        a, b = np.asarray(a), np.asarray(b)
        if exact:
            assert np.array_equal(a, b, equal_nan=True), name
        else:
            np.testing.assert_allclose(a, b, rtol=0, atol=1e-12)


@pytest.fixture(scope="module")
def reference(store):
    """The store materialized in memory — the parity baseline."""
    return store.to_table()


class TestBitwiseParity:
    @pytest.mark.parametrize("agg,column", AGGS)
    def test_bounded_matches_in_memory(self, engine, store, reference,
                                       simple_regions, agg, column):
        query = SpatialAggregation(agg, column)
        got = engine.execute(store, simple_regions, query, resolution=256)
        want = engine.execute(reference, simple_regions, query,
                              method="bounded", resolution=256)
        assert got.method == "store-bounded-raster-join"
        assert_results_match(got, want, agg)

    def test_filters_match(self, engine, store, reference, simple_regions):
        filters = (Comparison("fare", ">", 10.0),
                   Comparison("kind", "==", "a"))
        query = SpatialAggregation("sum", "fare", filters)
        got = engine.execute(store, simple_regions, query, resolution=256)
        want = engine.execute(reference, simple_regions, query,
                              method="bounded", resolution=256)
        assert_results_match(got, want, "sum")

    def test_time_brush_matches_and_prunes(self, engine, store, reference,
                                           simple_regions):
        query = SpatialAggregation(
            "count", None, (TimeRange("t", 0, 7_200),))
        got = engine.execute(store, simple_regions, query, resolution=256)
        want = engine.execute(reference, simple_regions, query,
                              method="bounded", resolution=256)
        assert_results_match(got, want, "count")
        parts = got.stats["store"]["partitions"]
        # The store is bucketed at 2h over an 8h span: a 2h brush must
        # prune most of it.
        assert parts["pruned"] > 0
        assert parts["scanned"] < parts["total"]

    def test_signed_values_use_abs_mass(self, engine, tmp_path,
                                        simple_regions):
        from repro.store import build_store
        from repro.table import PointTable, timestamp_column

        gen = np.random.default_rng(78)
        n = 5_000
        signed = PointTable.from_arrays(
            gen.uniform(0, 100, n), gen.uniform(0, 100, n), name="signed",
            delta=np.floor(gen.normal(0, 8, n)),
            t=timestamp_column("t", gen.integers(0, 3_600, n)))
        ds = build_store(signed, tmp_path / "signed", partition_rows=512,
                         grid=4)
        query = SpatialAggregation("sum", "delta")
        got = engine.execute(ds, simple_regions, query, resolution=256)
        want = engine.execute(ds.to_table(), simple_regions, query,
                              method="bounded", resolution=256)
        assert_results_match(got, want, "sum")


class TestViewportPruning:
    def test_viewport_restricted_query_prunes(self, engine, store,
                                              reference, simple_regions):
        """The acceptance scenario: a zoomed viewport skips partitions
        outside the window, answer unchanged."""
        from repro.raster import Viewport

        viewport = Viewport.fit(simple_regions.geometries[0].bbox, 128)
        query = SpatialAggregation("count", None)
        got = engine.execute(store, simple_regions, query,
                             viewport=viewport)
        want = engine.execute(reference, simple_regions, query,
                              method="bounded", viewport=viewport)
        assert_results_match(got, want, "count")
        assert got.stats["store"]["partitions"]["pruned"] > 0


class TestTiled:
    def test_tiled_matches_in_memory_tiled(self, engine, store, reference,
                                           simple_regions):
        query = SpatialAggregation("sum", "fare")
        got = engine.execute(store, simple_regions, query, method="tiled",
                             resolution=1_500)
        want = engine.execute(reference, simple_regions, query,
                              method="tiled", resolution=1_500)
        assert got.method == "store-tiled-bounded-raster-join"
        assert_results_match(got, want, "sum")
        assert got.stats["store"]["partitions"]["scanned"] > 0

    def test_auto_goes_tiled_over_canvas_cap(self, store, simple_regions):
        engine = SpatialAggregationEngine(max_canvas_resolution=512)
        query = SpatialAggregation("count", None)
        got = engine.execute(store, simple_regions, query,
                             resolution=2_000)
        assert got.method == "store-tiled-bounded-raster-join"

    def test_tiled_rejects_explicit_viewport(self, engine, store,
                                             simple_regions):
        from repro.raster import Viewport

        viewport = Viewport.fit(simple_regions.bbox, 128)
        with pytest.raises(QueryError):
            engine.execute(store, simple_regions,
                           SpatialAggregation("count", None),
                           method="tiled", viewport=viewport)


class _TripAfter:
    """A cancel token whose ``is_set()`` turns true after ``calls``."""

    def __init__(self, calls: int):
        self.calls = calls

    def is_set(self) -> bool:
        self.calls -= 1
        return self.calls < 0


class TestTiledCancel:
    def test_cancel_is_checked_between_partitions(self, store,
                                                  simple_regions):
        """Four tiles at 2048 px: one check before dispatch plus one per
        tile is five.  The sixth check must come from a partition
        boundary inside a tile, so the scan stops after a handful of
        partitions instead of paging the whole tile."""
        handle = Dataset.open(store.path)
        engine = SpatialAggregationEngine()
        with pytest.raises(QueryCancelled):
            engine.execute(handle, simple_regions,
                           SpatialAggregation("sum", "fare"),
                           method="tiled", resolution=2_048,
                           cancel=_TripAfter(5))
        mounts = handle.mount_stats()
        assert mounts["mounts"] + mounts["hits"] <= 5


class TestPointCounters:
    """Every store method reports the point counters of its in-memory
    twin, and the ``store.execute`` span carries them as ``rows``."""

    QUERY = SpatialAggregation("sum", "fare", (Comparison("fare", ">", 9.0),))

    def _pairs(self, store, reference, regions):
        yield (SpatialAggregationEngine().execute(
                   store, regions, self.QUERY, resolution=256),
               SpatialAggregationEngine().execute(
                   reference, regions, self.QUERY, method="bounded",
                   resolution=256))
        yield (SpatialAggregationEngine().execute(
                   store, regions, self.QUERY, method="tiled",
                   resolution=1_500),
               SpatialAggregationEngine().execute(
                   reference, regions, self.QUERY, method="tiled",
                   resolution=1_500))
        engine = SpatialAggregationEngine()
        gv = engine.plan_grid_viewport(regions, 256)
        # The store assembles every frame from blocks; its twin is the
        # in-memory assembly (an engine's first frame would run direct).
        yield (engine.execute(store, regions, self.QUERY, viewport=gv),
               assembled_bounded_join(SpatialAggregationEngine().ctx,
                                      reference, regions, self.QUERY, gv))

    def test_counters_equal_in_memory_twin(self, store, reference,
                                           simple_regions):
        methods = []
        for got, want in self._pairs(store, reference, simple_regions):
            methods.append(got.method)
            for key in ("points_after_filter", "points_in_viewport"):
                assert isinstance(got.stats[key], int), (got.method, key)
                assert got.stats[key] == want.stats[key], (got.method, key)
            assert 0 < got.stats["points_in_viewport"] \
                <= got.stats["points_after_filter"]
        assert methods == ["store-bounded-raster-join",
                           "store-tiled-bounded-raster-join",
                           "store-pyramid-raster-join"]

    @pytest.mark.parametrize("kwargs", [
        {"resolution": 256},
        {"method": "tiled", "resolution": 1_500},
    ], ids=["bounded", "tiled"])
    def test_store_execute_span_rows_is_int(self, store, simple_regions,
                                            kwargs):
        root = Tracer().start("query")
        with root:
            SpatialAggregationEngine().execute(store, simple_regions,
                                               self.QUERY, **kwargs)
        node = next(c for c in root.to_dict()["children"]
                    if c["name"] == "store.execute")
        assert isinstance(node["attrs"]["rows"], int)


class TestParallel:
    def test_parallel_scan_matches(self, store, reference, simple_regions):
        """The retired multi-worker config is ignored: the bounded scan
        stays bit-identical to in-memory."""
        parallel = ParallelConfig(workers=3, chunk_size=400,
                                  serial_threshold=100)
        engine = SpatialAggregationEngine(default_resolution=256,
                                          parallel=parallel)
        for agg, column in [("count", None), ("sum", "fare"),
                            ("min", "fare"), ("max", "fare")]:
            query = SpatialAggregation(agg, column)
            got = engine.execute(store, simple_regions, query,
                                 resolution=256)
            want = engine.execute(reference, simple_regions, query,
                                  method="bounded", resolution=256)
            assert_results_match(got, want, agg)


class TestBudgetedScan:
    def test_out_of_core_scan_under_budget(self, store, simple_regions,
                                           engine):
        """A store far larger than the mount budget still answers
        bitwise-identically, holding only O(partition) bytes mapped."""
        budget = max(info.nbytes for info in store.partitions) * 2
        assert budget < store.total_nbytes / 4
        budgeted = Dataset.open(store.path, memory_budget_bytes=budget)
        query = SpatialAggregation("sum", "fare")
        got = engine.execute(budgeted, simple_regions, query,
                             resolution=256)
        want = engine.execute(store.to_table(), simple_regions, query,
                              method="bounded", resolution=256)
        assert_results_match(got, want, "sum")
        mounts = budgeted.mount_stats()
        assert mounts["evictions"] > 0
        assert mounts["mapped_bytes"] <= budget


class TestPlanAndErrors:
    def test_stats_payload(self, engine, store, simple_regions):
        result = engine.execute(store, simple_regions,
                                SpatialAggregation("count", None),
                                resolution=256)
        sstats = result.stats["store"]
        assert sstats["dataset"] == store.name
        parts = sstats["partitions"]
        assert parts["total"] == store.num_partitions
        assert parts["scanned"] + parts["pruned"] == parts["total"]
        assert result.stats["plan"]["decision"]["chosen"].startswith("store-")
        assert "cache" in result.stats

    def test_exact_rejected(self, engine, store, simple_regions):
        with pytest.raises(QueryError, match="exact"):
            engine.execute(store, simple_regions,
                           SpatialAggregation("count", None), exact=True)

    def test_unknown_method_rejected(self, engine, store, simple_regions):
        with pytest.raises(QueryError):
            engine.execute(store, simple_regions,
                           SpatialAggregation("count", None),
                           method="naive")

    def test_unknown_column_raises_at_scan(self, engine, store,
                                           simple_regions):
        from repro.errors import SchemaError

        with pytest.raises(SchemaError, match="no column"):
            engine.execute(store, simple_regions,
                           SpatialAggregation("sum", "nope"),
                           resolution=256)
