"""Reading stores: mmap-backed partitions with an LRU mount budget.

A :class:`Dataset` opens a store directory from its manifest alone —
no column bytes are touched until a partition is actually scanned.
:meth:`Dataset.partition_table` mounts a partition with one ``open``,
one ``fstat`` and one read-only ``mmap`` of its file, and wraps an
:func:`numpy.frombuffer` view per column (at the offsets the manifest
lists) in a zero-copy :class:`~repro.table.PointTable` — float64/int64/
int32 bytes satisfy the table's dtype contracts exactly, so no
conversion copies happen.  A missing file, or one whose size is not
the manifest's, raises :class:`~repro.errors.SchemaError` and leaves
the LRU untouched.  Mounted partitions are kept in an LRU keyed by
partition index; when ``memory_budget_bytes`` is set, least-recently-
scanned mappings are dropped once the mapped total (raw column bytes)
exceeds it — the OS reclaims the pages, and a later touch simply
remaps the file.

The pages a query actually reads are resident only transiently, so
peak RSS of an out-of-core scan is O(partition + canvas), never
O(dataset) — the property the acceptance benchmark measures.
"""

from __future__ import annotations

import os
import threading
from collections import OrderedDict
from pathlib import Path

import numpy as np

from ..obs.trace import span
from ..table import PointTable
from ..table.column import Column
from .format import (
    KIND_DTYPES,
    Manifest,
    PartitionInfo,
    file_layout,
    map_partition,
    read_manifest,
)


class Dataset:
    """An opened store: manifest + lazily mounted mmap partitions."""

    def __init__(self, path, manifest: Manifest,
                 memory_budget_bytes: int | None = None):
        self.path = Path(path)
        self.manifest = manifest
        self._root = os.fspath(self.path)
        self._layout = file_layout(manifest.columns)
        self.memory_budget_bytes = memory_budget_bytes
        self._mounted: OrderedDict[int, tuple[PointTable, int]] = \
            OrderedDict()
        self._mapped_bytes = 0
        self.mounts = 0
        self.mount_hits = 0
        self.evictions = 0
        # Serve-pool threads share one Dataset; the mount LRU (dict +
        # byte counter) must mutate atomically.
        self._mount_lock = threading.RLock()

    @classmethod
    def open(cls, path, memory_budget_bytes: int | None = None) -> "Dataset":
        """Open a store directory (reads only the manifest)."""
        return cls(path, read_manifest(Path(path)),
                   memory_budget_bytes=memory_budget_bytes)

    # -- schema ------------------------------------------------------------

    @property
    def name(self) -> str:
        return self.manifest.name

    @property
    def partitions(self) -> list[PartitionInfo]:
        return self.manifest.partitions

    @property
    def num_partitions(self) -> int:
        return len(self.manifest.partitions)

    def __len__(self) -> int:
        return self.manifest.rows

    @property
    def column_names(self) -> list[str]:
        return [spec.name for spec in self.manifest.columns]

    @property
    def total_nbytes(self) -> int:
        """Raw column bytes across every partition."""
        return sum(p.nbytes for p in self.manifest.partitions)

    def describe(self) -> str:
        cols = ", ".join(f"{c.name}:{c.kind}" for c in self.manifest.columns)
        return (f"Dataset({self.name!r}, rows={len(self)}, "
                f"partitions={self.num_partitions}, cols=[{cols}])")

    __repr__ = describe

    # -- partition access --------------------------------------------------

    def partition_table(self, index: int) -> PointTable:
        """The mmap-backed table of one partition (LRU-mounted)."""
        with self._mount_lock:
            entry = self._mounted.get(index)
            if entry is not None:
                self._mounted.move_to_end(index)
                self.mount_hits += 1
                return entry[0]
            info = self.manifest.partitions[index]
            with span("store.mount", partition=index):
                table = self._map_partition(info)
            self.mounts += 1
            self._mounted[index] = (table, info.nbytes)
            self._mapped_bytes += info.nbytes
            budget = self.memory_budget_bytes
            if budget is not None:
                # Keep at least the partition being handed out mapped.
                while self._mapped_bytes > budget and len(self._mounted) > 1:
                    _, (_, nbytes) = self._mounted.popitem(last=False)
                    self._mapped_bytes -= nbytes
                    self.evictions += 1
            return table

    def _map_partition(self, info: PartitionInfo) -> PointTable:
        views = map_partition(os.path.join(self._root, info.file), info,
                              self._layout)
        columns = {spec.name: Column(spec.name, spec.kind, views[spec.name],
                                     spec.categories)
                   for spec in self.manifest.columns}
        return PointTable(views["x"], views["y"], columns,
                          name=f"{self.name}/{info.file}")

    def iter_partition_tables(self, indices=None):
        """Yield (index, table) over (surviving) partitions in manifest
        order — the canonical out-of-core scan order."""
        if indices is None:
            indices = range(self.num_partitions)
        for index in indices:
            yield index, self.partition_table(index)

    # -- whole-table materialization ---------------------------------------

    def to_table(self, name: str | None = None) -> PointTable:
        """Materialize the full dataset in memory, in manifest order.

        The in-memory reference the out-of-core engine is bitwise-equal
        against; intended for tests and small stores only.
        """
        tables = [self.partition_table(i)
                  for i in range(self.num_partitions)
                  if self.manifest.partitions[i].rows]
        if not tables:
            columns = {}
            for spec in self.manifest.columns:
                raw = np.empty(0, dtype=KIND_DTYPES[spec.kind])
                columns[spec.name] = Column(spec.name, spec.kind, raw,
                                            spec.categories)
            return PointTable(np.empty(0), np.empty(0), columns,
                              name=name or self.name)
        return PointTable.concat(tables, name=name or self.name)

    # -- introspection -----------------------------------------------------

    def mount_stats(self) -> dict:
        """Mapping counters: what the LRU budget is doing."""
        with self._mount_lock:
            return {
                "partitions_mapped": len(self._mounted),
                "mapped_bytes": self._mapped_bytes,
                "memory_budget_bytes": self.memory_budget_bytes,
                "mounts": self.mounts,
                "hits": self.mount_hits,
                "evictions": self.evictions,
            }

    def drop_mounts(self) -> None:
        """Release every mounted partition (tests / manual trimming)."""
        with self._mount_lock:
            self._mounted.clear()
            self._mapped_bytes = 0
