"""Lazy mounting: LRU budgets, mmap-aware cache sizing, serve manifest.

Covers the memory-side satellites: :func:`estimate_nbytes` charging 0
for file-backed arrays (the OS reclaims those pages, the cache should
not), the Dataset LRU keeping mapped bytes at the budget, and the
DataManager/serve layer opening stores only on first query.
"""

import json

import numpy as np
import pytest

from repro.core import SpatialAggregation
from repro.core.cache import estimate_nbytes
from repro.errors import QueryError, SchemaError
from repro.serve import mount_datasets
from repro.store import Dataset, build_store
from repro.table import save_npz
from repro.urbane import DataManager


class TestMmapSizing:
    def test_mmap_columns_cost_nothing(self, store, tmp_path):
        part = store.partition_table(0)
        assert estimate_nbytes(part.x) == 0
        # astype(copy=False) views keep the base chain down to the mmap.
        values = part.column("fare").values.astype(np.float64, copy=False)
        assert estimate_nbytes(values) == 0
        # An np.memmap's base is an mmap.mmap too.
        np.arange(16, dtype=np.float64).tofile(tmp_path / "raw.bin")
        mapped = np.memmap(tmp_path / "raw.bin", dtype=np.float64, mode="r")
        assert estimate_nbytes(mapped) == 0
        assert estimate_nbytes(mapped[4:]) == 0

    def test_materialized_copies_still_charged(self, store):
        part = store.partition_table(0)
        copied = np.array(part.x)
        assert estimate_nbytes(copied) == copied.nbytes
        assert estimate_nbytes(np.zeros(100)) == 800


class TestLRUMounting:
    def test_unbudgeted_keeps_everything(self, store):
        ds = Dataset.open(store.path)
        for i in range(ds.num_partitions):
            ds.partition_table(i)
        stats = ds.mount_stats()
        assert stats["partitions_mapped"] == ds.num_partitions
        assert stats["evictions"] == 0

    def test_budget_caps_mapped_bytes(self, store):
        budget = max(p.nbytes for p in store.partitions) * 3
        ds = Dataset.open(store.path, memory_budget_bytes=budget)
        for i in range(ds.num_partitions):
            ds.partition_table(i)
        stats = ds.mount_stats()
        assert stats["mapped_bytes"] <= budget
        assert stats["evictions"] > 0

    def test_remount_after_eviction(self, store):
        budget = max(p.nbytes for p in store.partitions)
        ds = Dataset.open(store.path, memory_budget_bytes=budget)
        first = ds.partition_table(0)
        ds.partition_table(1)  # evicts 0 (budget fits ~one partition)
        again = ds.partition_table(0)
        assert np.array_equal(np.asarray(first.x), np.asarray(again.x))

    def test_touch_refreshes_lru(self, store):
        ds = Dataset.open(store.path)
        ds.partition_table(0)
        ds.partition_table(1)
        ds.partition_table(0)  # hit, moves to MRU
        assert ds.mount_stats()["hits"] == 1

    def test_drop_mounts(self, store):
        ds = Dataset.open(store.path)
        ds.partition_table(0)
        ds.drop_mounts()
        assert ds.mount_stats()["partitions_mapped"] == 0


class TestMountErrors:
    """A damaged partition file fails its mount as a SchemaError and
    leaves the mount LRU as it was."""

    @pytest.fixture
    def fresh(self, store_table, tmp_path):
        return build_store(store_table.take(np.arange(6_000)),
                           tmp_path / "s", partition_rows=1_024, grid=2)

    @pytest.mark.parametrize("damage", ["missing", "truncated", "extended"])
    def test_damaged_file_raises_schema_error(self, fresh, damage):
        ds = Dataset.open(fresh.path, memory_budget_bytes=max(
            p.nbytes for p in fresh.partitions) * 2)
        ds.partition_table(0)
        ds.partition_table(1)
        before = ds.mount_stats()
        path = ds.path / ds.partitions[2].file
        if damage == "missing":
            path.unlink()
        elif damage == "truncated":
            path.write_bytes(path.read_bytes()[:-1])
        else:
            with open(path, "ab") as handle:
                handle.write(b"\0")
        with pytest.raises(SchemaError, match=ds.partitions[2].file):
            ds.partition_table(2)
        assert ds.mount_stats() == before
        assert list(ds._mounted) == [0, 1]
        # The LRU still works: a hit, then a mount that evicts.
        ds.partition_table(0)
        ds.partition_table(3)
        stats = ds.mount_stats()
        assert stats["hits"] == before["hits"] + 1
        assert stats["mapped_bytes"] == sum(
            nbytes for _, nbytes in ds._mounted.values())
        assert stats["mounts"] - stats["evictions"] == \
            stats["partitions_mapped"]


class TestMountThreadSafety:
    def test_concurrent_mounts_keep_lru_consistent(self, store):
        """Hammer the mount LRU from many threads under a tight budget.

        Without the mount lock this corrupts the OrderedDict / byte
        counter (or double-evicts); with it, the accounting identities
        hold exactly and every read returns the right rows.
        """
        from concurrent.futures import ThreadPoolExecutor

        budget = max(p.nbytes for p in store.partitions) * 2
        ds = Dataset.open(store.path, memory_budget_bytes=budget)
        n = ds.num_partitions

        def hammer(seed: int) -> int:
            rng = np.random.default_rng(seed)
            rows = 0
            for index in rng.integers(0, n, 200):
                table = ds.partition_table(int(index))
                rows += len(table)
                ds.mount_stats()
            return rows

        with ThreadPoolExecutor(max_workers=8) as pool:
            totals = list(pool.map(hammer, range(8)))
        assert all(t > 0 for t in totals)
        stats = ds.mount_stats()
        # mounts - evictions == currently mapped: no entry lost or
        # double-counted across racing mount/evict pairs.
        assert stats["mounts"] - stats["evictions"] == \
            stats["partitions_mapped"]
        assert stats["mapped_bytes"] <= budget
        assert stats["mapped_bytes"] == sum(
            nbytes for _, nbytes in ds._mounted.values())

    def test_concurrent_drop_and_mount(self, store):
        from concurrent.futures import ThreadPoolExecutor

        ds = Dataset.open(store.path)

        def churn(worker: int):
            for step in range(100):
                if worker == 0 and step % 10 == 0:
                    ds.drop_mounts()
                else:
                    ds.partition_table(step % ds.num_partitions)

        with ThreadPoolExecutor(max_workers=4) as pool:
            list(pool.map(churn, range(4)))
        stats = ds.mount_stats()
        assert stats["partitions_mapped"] <= ds.num_partitions


class TestDataManagerLazy:
    def test_store_opened_on_first_query(self, store, simple_regions):
        manager = DataManager()
        manager.add_store(store.path, name="pts")
        manager.add_region_set(simple_regions, "simple")
        status = manager.store_status()
        assert status == [{"name": "pts", "path": str(store.path),
                           "opened": False, "memory_budget_bytes": None}]
        result = manager.aggregate("pts", "simple",
                                   SpatialAggregation("count", None),
                                   resolution=256)
        assert result.stats["store"]["partitions"]["total"] == \
            store.num_partitions
        status = manager.store_status()
        assert status[0]["opened"] is True
        assert status[0]["mounts"] > 0

    def test_name_collisions_rejected_across_kinds(self, store,
                                                   store_table):
        manager = DataManager()
        manager.add_store(store.path, name="pts")
        with pytest.raises(QueryError, match="already registered"):
            manager.add_dataset(store_table, "pts")
        with pytest.raises(QueryError, match="already registered"):
            manager.add_store(store.path, name="pts")
        assert manager.dataset_names == ["pts"]

    def test_budget_threads_through(self, store, simple_regions):
        manager = DataManager()
        budget = max(p.nbytes for p in store.partitions) * 2
        manager.add_store(store.path, name="pts",
                          memory_budget_bytes=budget)
        manager.add_region_set(simple_regions, "simple")
        manager.aggregate("pts", "simple",
                          SpatialAggregation("sum", "fare"),
                          resolution=256)
        opened = manager.dataset("pts")
        assert opened.memory_budget_bytes == budget
        assert opened.mount_stats()["mapped_bytes"] <= budget


class TestServeManifest:
    def test_mount_datasets(self, store, store_table, tmp_path):
        save_npz(store_table, tmp_path / "mem.npz")
        manifest = {
            "stores": [{"name": "big", "path": str(store.path),
                        "memory_budget_mb": 1}],
            "tables": [{"name": "mem", "path": "mem.npz"}],
        }
        (tmp_path / "datasets.json").write_text(json.dumps(manifest))
        manager = DataManager()
        lines = mount_datasets(manager, tmp_path / "datasets.json")
        assert len(lines) == 2
        assert manager.dataset_names == ["big", "mem"]
        # The store is named but not opened.
        assert manager.store_status()[0]["opened"] is False
        opened = manager.dataset("big")
        assert isinstance(opened, Dataset)
        assert opened.memory_budget_bytes == 1024 * 1024

    def test_relative_paths_resolve_against_manifest(self, store_table,
                                                     tmp_path):
        (tmp_path / "sub").mkdir()
        save_npz(store_table, tmp_path / "sub" / "mem.npz")
        (tmp_path / "sub" / "datasets.json").write_text(json.dumps(
            {"tables": [{"name": "mem", "path": "mem.npz"}]}))
        manager = DataManager()
        mount_datasets(manager, tmp_path / "sub" / "datasets.json")
        assert len(manager.dataset("mem")) == len(store_table)

    def test_bad_manifest_rejected(self, tmp_path):
        (tmp_path / "datasets.json").write_text("[1, 2]")
        with pytest.raises(SchemaError, match="JSON object"):
            mount_datasets(DataManager(), tmp_path / "datasets.json")
        with pytest.raises(SchemaError, match="cannot read"):
            mount_datasets(DataManager(), tmp_path / "missing.json")
