"""Fixtures: a mid-size store and engines built with the retired shard
configuration (which the engine ignores)."""

from __future__ import annotations

import pytest

from repro.core import ParallelConfig, SpatialAggregationEngine
from repro.store import build_store

from tests.store.conftest import HOUR, make_store_table


@pytest.fixture(scope="session")
def shard_table():
    return make_store_table(30_000, seed=99)


@pytest.fixture(scope="session")
def shard_store(shard_table, tmp_path_factory):
    path = tmp_path_factory.mktemp("shard-store") / "pts"
    return build_store(shard_table, path, partition_rows=1_024, grid=4,
                       time_column="t", time_bucket_seconds=2 * HOUR)


def sharded_engine(shards: int,
                   resolution: int = 256) -> SpatialAggregationEngine:
    """An engine given the config that used to shard its store scans
    even at test-sized inputs; it now runs the serial paths."""
    return SpatialAggregationEngine(
        default_resolution=resolution,
        parallel=ParallelConfig(shards=shards, serial_threshold=100))


@pytest.fixture(scope="module")
def serial_engine():
    """A default engine — the single-process reference."""
    return SpatialAggregationEngine(default_resolution=256)


@pytest.fixture(scope="module")
def shard_reference(shard_store):
    """The store materialized in memory, in manifest order."""
    return shard_store.to_table()
