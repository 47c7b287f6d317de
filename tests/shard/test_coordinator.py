"""Shard coordinator unit coverage: decisions, prefetch."""

from __future__ import annotations

import pytest

from repro.core import ParallelConfig
from repro.shard import PartitionPrefetcher


class TestDecideShards:
    def test_serial_when_one_shard(self):
        cfg = ParallelConfig(shards=1)
        decision = cfg.decide_shards(10, 1_000_000)
        assert decision["use"] is False
        assert "one shard" in decision["reason"]

    def test_serial_below_threshold(self):
        cfg = ParallelConfig(shards=4, serial_threshold=10_000)
        decision = cfg.decide_shards(10, 9_999)
        assert decision["use"] is False
        assert "threshold" in decision["reason"]

    def test_serial_single_partition(self):
        cfg = ParallelConfig(shards=4, serial_threshold=100)
        decision = cfg.decide_shards(1, 1_000_000)
        assert decision["use"] is False

    def test_use_caps_at_partition_count(self):
        cfg = ParallelConfig(shards=8, serial_threshold=100)
        decision = cfg.decide_shards(3, 1_000_000)
        assert decision["use"] is True
        assert decision["shards"] == 3

    def test_prefetch_depth_rides_along(self):
        cfg = ParallelConfig(shards=4, prefetch_depth=3,
                             serial_threshold=100)
        decision = cfg.decide_shards(8, 1_000_000)
        assert decision["prefetch_depth"] == 3

    def test_resolve_and_with_shards(self):
        cfg = ParallelConfig(workers=6)
        assert cfg.resolve_shards() == 6  # shards default to workers
        cfg2 = cfg.with_shards(2, prefetch_depth=5)
        assert cfg2.resolve_shards() == 2
        assert cfg2.prefetch_depth == 5


class TestPrefetcher:
    def test_advises_ahead_of_scan(self, shard_store):
        indices = list(range(min(6, shard_store.num_partitions)))
        prefetcher = PartitionPrefetcher(shard_store, indices, depth=2)
        prefetcher.advance(0)
        # Positions 1 and 2 advised; position 0 never (it is current).
        assert prefetcher.issued == 2
        prefetcher.advance(1)
        assert prefetcher.issued == 3
        for pos in range(2, len(indices)):
            prefetcher.advance(pos)
        # Window never runs past the end of the shard.
        assert prefetcher.issued == len(indices) - 1

    def test_depth_zero_is_a_noop(self, shard_store):
        prefetcher = PartitionPrefetcher(shard_store, [0, 1, 2], depth=0)
        for pos in range(3):
            prefetcher.advance(pos)
        assert prefetcher.issued == 0
        assert prefetcher.stats()["hit_fraction"] == 0.0

    def test_madvise_reaches_the_kernel_on_linux(self, shard_store):
        import mmap

        if not hasattr(mmap, "MADV_WILLNEED"):
            pytest.skip("madvise not available on this platform")
        assert shard_store.prefetch_partition(0) is True
        prefetcher = PartitionPrefetcher(shard_store, [0, 1], depth=1)
        prefetcher.advance(0)
        stats = prefetcher.stats()
        assert stats["advised"] == stats["issued"] == 1
        assert stats["hit_fraction"] == 1.0
