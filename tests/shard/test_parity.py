"""Shard-merge parity: sharded answers == single-process answers.

The acceptance contract of the coordinator: for COUNT/SUM/MIN/MAX the
per-shard merge is *bitwise* equal to single-process execution (the
store fixture's value column is integer-valued, the documented regime
where sharded SUM folds stay exact), AVG within 1e-12 — across the
tiled and pyramid store paths.  The bounded scan is a point pass: a
sharded config must leave it serial and bit-identical, including the
degenerate shapes (more shards than partitions, a single partition,
queries that prune everything).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import SpatialAggregation
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
    def test_bitwise_across_shard_counts(self, shard_store, simple_regions,
                                         serial_engine, shards, agg,
                                         column):
        query = SpatialAggregation(agg, column)
        want = serial_engine.execute(shard_store, simple_regions, query,
                                     resolution=256)
        assert want.stats["plan"]["shards"]["use"] is False
        got = sharded_engine(shards).execute(shard_store, simple_regions,
                                             query, resolution=256)
        # A point pass: no shard count makes the bounded scan fork.
        assert got.stats["plan"]["shards"]["use"] is False
        assert "shards" not in got.stats
        assert got.stats["parallel"]["mode"] == "serial"
        assert_match(got, want, agg)

    def test_avg_within_tolerance(self, shard_store, simple_regions,
                                  serial_engine):
        query = SpatialAggregation("avg", "fare")
        want = serial_engine.execute(shard_store, simple_regions, query,
                                     resolution=256)
        got = sharded_engine(4).execute(shard_store, simple_regions,
                                        query, resolution=256)
        assert_match(got, want, "avg")

    def test_filtered_query_matches(self, shard_store, simple_regions,
                                    serial_engine):
        query = SpatialAggregation(
            "sum", "fare", (Comparison("kind", "==", "a"),))
        want = serial_engine.execute(shard_store, simple_regions, query,
                                     resolution=256)
        got = sharded_engine(3).execute(shard_store, simple_regions,
                                        query, resolution=256)
        assert_match(got, want, "sum")

    def test_prune_everything(self, shard_store, simple_regions,
                              serial_engine):
        """Zone maps kill every partition: zero survivors — and
        identical all-empty answers."""
        query = SpatialAggregation(
            "count", None, (Comparison("fare", ">", 1e9),))
        want = serial_engine.execute(shard_store, simple_regions, query,
                                     resolution=256)
        got = sharded_engine(4).execute(shard_store, simple_regions,
                                        query, resolution=256)
        assert got.stats["store"]["partitions"]["scanned"] == 0
        assert_match(got, want, "count")

    def test_more_shards_than_partitions(self, shard_store, simple_regions,
                                         serial_engine):
        """Shard counts clamp to the tile count on the tiled path."""
        query = SpatialAggregation("sum", "fare")
        want = serial_engine.execute(shard_store, simple_regions, query,
                                     method="tiled", resolution=2_048)
        got = sharded_engine(64).execute(shard_store, simple_regions,
                                         query, method="tiled",
                                         resolution=2_048)
        assert got.stats["shards"]["count"] == got.stats["tiles"]
        assert_match(got, want, "sum")

    def test_prefetch_stats_surface(self, shard_store, simple_regions):
        engine = sharded_engine(2, prefetch_depth=2)
        result = engine.execute(shard_store, simple_regions,
                                SpatialAggregation.count(),
                                method="tiled", resolution=2_048)
        shards = result.stats["shards"]
        assert shards["prefetch_depth"] == 2
        assert shards["prefetch_issued"] > 0
        assert 0.0 <= shards["prefetch_hit_fraction"] <= 1.0
        assert len(shards["per_shard"]) == shards["count"]
        for entry in shards["per_shard"]:
            assert entry["time_s"] >= 0.0
            assert "prefetch" in entry


class TestSinglePartition:
    @pytest.fixture(scope="class")
    def one_partition_store(self, shard_table, tmp_path_factory):
        path = tmp_path_factory.mktemp("one-part") / "pts"
        return build_store(shard_table, path,
                           partition_rows=len(shard_table), grid=1)

    def test_stays_serial_and_matches(self, one_partition_store,
                                      simple_regions, serial_engine):
        query = SpatialAggregation("sum", "fare")
        want = serial_engine.execute(one_partition_store, simple_regions,
                                     query, method="tiled",
                                     resolution=2_048)
        got = sharded_engine(4).execute(one_partition_store,
                                        simple_regions, query,
                                        method="tiled", resolution=2_048)
        # One partition cannot shard; the decision says so and the
        # single in-process tile range answers.
        decision = got.stats["plan"]["shards"]
        assert decision["use"] is False
        assert "surviving partition" in decision["reason"]
        assert got.stats["parallel"]["mode"] == "serial"
        assert_match(got, want, "sum")


class TestTiledParity:
    @pytest.mark.parametrize("agg,column", AGGS)
    def test_tiled_matches_serial_tiled(self, shard_store, simple_regions,
                                        serial_engine, agg, column):
        query = SpatialAggregation(agg, column)
        want = serial_engine.execute(shard_store, simple_regions, query,
                                     method="tiled", resolution=2_048)
        got = sharded_engine(3).execute(shard_store, simple_regions,
                                        query, method="tiled",
                                        resolution=2_048)
        assert got.method == "store-tiled-bounded-raster-join"
        assert got.stats["plan"]["shards"]["use"] is True
        assert got.stats["shards"]["count"] >= 2
        assert_match(got, want, agg)

    def test_tiled_avg_within_tolerance(self, shard_store, simple_regions,
                                        serial_engine):
        query = SpatialAggregation("avg", "fare")
        want = serial_engine.execute(shard_store, simple_regions, query,
                                     method="tiled", resolution=2_048)
        got = sharded_engine(4).execute(shard_store, simple_regions,
                                        query, method="tiled",
                                        resolution=2_048)
        assert_match(got, want, "avg")


class TestPyramidParity:
    @pytest.mark.parametrize("agg,column", AGGS)
    def test_assembled_matches_serial_assembly(self, shard_store,
                                               simple_regions, agg,
                                               column):
        query = SpatialAggregation(agg, column)
        serial = sharded_engine(1)
        gv = serial.plan_grid_viewport(simple_regions, 256)
        want = serial.execute(shard_store, simple_regions, query,
                              viewport=gv)
        sharded = sharded_engine(4)
        got = sharded.execute(shard_store, simple_regions, query,
                              viewport=gv)
        assert got.method == "store-pyramid-raster-join"
        assert_match(got, want, agg)
        shards = got.stats.get("shards")
        assert shards is not None and shards["blocks_prescattered"] > 0

    def test_warm_blocks_skip_prescatter(self, shard_store,
                                         simple_regions):
        engine = sharded_engine(4)
        query = SpatialAggregation.count()
        gv = engine.plan_grid_viewport(simple_regions, 256)
        cold = engine.execute(shard_store, simple_regions, query,
                              viewport=gv)
        warm = engine.execute(shard_store, simple_regions, query,
                              viewport=gv)
        assert np.array_equal(cold.values, warm.values, equal_nan=True)
        # Every block is cached now: nothing to pre-scatter.
        assert "shards" not in warm.stats or \
            warm.stats["shards"] is None or \
            warm.stats["shards"].get("blocks_prescattered", 0) == 0
