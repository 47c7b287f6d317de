"""Store answers under the retired shard configuration.

``repro.shard`` is gone: the store's bounded, tiled and pyramid paths
run in one process whatever shard count an engine is given.  Each
answer here must still equal the in-memory engine over the materialized
store — bitwise for COUNT/SUM/MIN/MAX (the fixture's value column is
integer-valued), AVG within 1e-12 — including the degenerate shapes
(more shards than tiles, a single partition, queries that prune
everything).  ``tests/store/test_parity.py`` holds the pyramid path to
the direct scan frame by frame.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import SpatialAggregation
from repro.core.pyramid import Viewport
from repro.store import build_store
from repro.table import Comparison

from .conftest import sharded_engine

AGGS = [("count", None), ("sum", "fare"), ("min", "fare"),
        ("max", "fare")]


def assert_match(got, want, agg):
    exact = agg in ("count", "sum", "min", "max")
    for name in ("values", "lower", "upper"):
        a, b = getattr(got, name), getattr(want, name)
        if a is None or b is None:
            assert a is None and b is None, name
            continue
        a, b = np.asarray(a), np.asarray(b)
        if exact:
            assert np.array_equal(a, b, equal_nan=True), name
        else:
            np.testing.assert_allclose(a, b, rtol=0, atol=1e-12)


class TestBoundedParity:
    @pytest.mark.parametrize("shards", [2, 3, 8])
    @pytest.mark.parametrize("agg,column", AGGS)
    def test_bitwise_across_shard_counts(self, shard_store, shard_reference,
                                         simple_regions, serial_engine,
                                         shards, agg, column):
        query = SpatialAggregation(agg, column)
        want = serial_engine.execute(shard_reference, simple_regions, query,
                                     method="bounded", resolution=256)
        got = sharded_engine(shards).execute(shard_store, simple_regions,
                                             query, resolution=256)
        assert got.method == "store-bounded-raster-join"
        assert_match(got, want, agg)

    def test_avg_within_tolerance(self, shard_store, shard_reference,
                                  simple_regions, serial_engine):
        query = SpatialAggregation("avg", "fare")
        want = serial_engine.execute(shard_reference, simple_regions, query,
                                     method="bounded", resolution=256)
        got = sharded_engine(4).execute(shard_store, simple_regions,
                                        query, resolution=256)
        assert_match(got, want, "avg")

    def test_filtered_query_matches(self, shard_store, shard_reference,
                                    simple_regions, serial_engine):
        query = SpatialAggregation(
            "sum", "fare", (Comparison("kind", "==", "a"),))
        want = serial_engine.execute(shard_reference, simple_regions, query,
                                     method="bounded", resolution=256)
        got = sharded_engine(3).execute(shard_store, simple_regions,
                                        query, resolution=256)
        assert_match(got, want, "sum")

    def test_prune_everything(self, shard_store, shard_reference,
                              simple_regions, serial_engine):
        """Zone maps kill every partition: zero survivors — and
        identical all-empty answers."""
        query = SpatialAggregation(
            "count", None, (Comparison("fare", ">", 1e9),))
        want = serial_engine.execute(shard_reference, simple_regions, query,
                                     method="bounded", resolution=256)
        got = sharded_engine(4).execute(shard_store, simple_regions,
                                        query, resolution=256)
        assert got.stats["store"]["partitions"]["scanned"] == 0
        assert_match(got, want, "count")

    def test_more_shards_than_partitions(self, shard_store, shard_reference,
                                         simple_regions, serial_engine):
        """A shard count beyond the tile count is as ignored as any."""
        query = SpatialAggregation("sum", "fare")
        want = serial_engine.execute(shard_reference, simple_regions, query,
                                     method="tiled", resolution=2_048)
        got = sharded_engine(64).execute(shard_store, simple_regions,
                                         query, method="tiled",
                                         resolution=2_048)
        assert got.stats["tiles"] == 4
        assert_match(got, want, "sum")


class TestSinglePartition:
    @pytest.fixture(scope="class")
    def one_partition_store(self, shard_table, tmp_path_factory):
        path = tmp_path_factory.mktemp("one-part") / "pts"
        return build_store(shard_table, path,
                           partition_rows=len(shard_table), grid=1)

    def test_stays_serial_and_matches(self, one_partition_store,
                                      simple_regions, serial_engine):
        query = SpatialAggregation("sum", "fare")
        want = serial_engine.execute(one_partition_store.to_table(),
                                     simple_regions, query, method="tiled",
                                     resolution=2_048)
        got = sharded_engine(4).execute(one_partition_store,
                                        simple_regions, query,
                                        method="tiled", resolution=2_048)
        # The one partition is paged once per tile it touches.
        assert got.stats["partitions_paged"] <= got.stats["tiles"]
        assert_match(got, want, "sum")


class TestTiledParity:
    @pytest.mark.parametrize("agg,column", AGGS)
    def test_tiled_matches_serial_tiled(self, shard_store, shard_reference,
                                        simple_regions, serial_engine, agg,
                                        column):
        query = SpatialAggregation(agg, column)
        want = serial_engine.execute(shard_reference, simple_regions, query,
                                     method="tiled", resolution=2_048)
        got = sharded_engine(3).execute(shard_store, simple_regions,
                                        query, method="tiled",
                                        resolution=2_048)
        assert got.method == "store-tiled-bounded-raster-join"
        assert_match(got, want, agg)

    def test_tiled_avg_within_tolerance(self, shard_store, shard_reference,
                                        simple_regions, serial_engine):
        query = SpatialAggregation("avg", "fare")
        want = serial_engine.execute(shard_reference, simple_regions, query,
                                     method="tiled", resolution=2_048)
        got = sharded_engine(4).execute(shard_store, simple_regions,
                                        query, method="tiled",
                                        resolution=2_048)
        assert_match(got, want, "avg")


class TestPyramidParity:
    @pytest.mark.parametrize("agg,column", AGGS)
    def test_assembled_matches_serial_assembly(self, shard_store,
                                               simple_regions, serial_engine,
                                               agg, column):
        query = SpatialAggregation(agg, column)
        engine = sharded_engine(4)
        gv = engine.plan_grid_viewport(simple_regions, 256)
        got = engine.execute(shard_store, simple_regions, query,
                             viewport=gv)
        want = serial_engine.execute(shard_store, simple_regions, query,
                                     viewport=Viewport(gv.bbox, gv.width,
                                                       gv.height))
        assert got.method == "store-pyramid-raster-join"
        assert want.method == "store-bounded-raster-join"
        assert_match(got, want, agg)
        store = got.stats["store"]
        assert 0 < store["partitions_paged"] \
            <= store["partitions"]["scanned"]

    def test_warm_blocks_skip_prescatter(self, shard_store,
                                         simple_regions):
        """A warm frame scatters no block and pages no partition."""
        engine = sharded_engine(4)
        query = SpatialAggregation.count()
        gv = engine.plan_grid_viewport(simple_regions, 256)
        cold = engine.execute(shard_store, simple_regions, query,
                              viewport=gv)
        # cache=False: the block tier answers, not the stored answer.
        warm = engine.execute(shard_store, simple_regions, query,
                              viewport=gv, cache=False)
        assert np.array_equal(cold.values, warm.values, equal_nan=True)
        assert warm.stats["pyramid"]["scattered"] == 0
        assert warm.stats["store"]["partitions_paged"] == 0
