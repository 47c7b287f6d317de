"""Building stores: chunked, bounded-memory partition writing.

:class:`DatasetWriter` ingests :class:`~repro.table.PointTable` chunks
and lays them out as fixed-size partitions grouped by a spatial grid
key (x/y cell, optional time bucket).  Ingestion is bounded-memory:
rows are buffered per key, any key reaching ``partition_rows`` is
flushed to disk immediately, and when the total buffered rows exceed
``buffer_rows`` the largest buffers are evicted as (possibly partial)
partitions.  The writer never needs more than one chunk plus the
buffer budget resident — that is what lets it sit at the end of a
chunked CSV reader.  A writer builds a fresh store: its target must be
a missing or empty directory.

Category domains are **global**: each categorical column keeps one
label list in the manifest, chunk codes are re-encoded on ingest, and
labels first seen in a later chunk take the next code — so every
partition of a store shares one code space and zone-map bitsets agree.
"""

from __future__ import annotations

import shutil
from pathlib import Path

import numpy as np

from ..errors import SchemaError
from ..geometry import BBox
from ..table import PointTable
from ..table.column import CATEGORICAL, TIMESTAMP
from .format import (
    ColumnSpec,
    Manifest,
    PartitionInfo,
    build_zones,
    file_layout,
    partition_filename,
    write_manifest,
    write_partition,
)

DEFAULT_PARTITION_ROWS = 65_536
DEFAULT_GRID = 8


class DatasetWriter:
    """Write a partitioned columnar store from table chunks.

    Use as a context manager; :meth:`close` flushes every buffer and
    writes the manifest.  ``path`` must not exist or be an empty
    directory.
    """

    def __init__(self, path, *, partition_rows: int = DEFAULT_PARTITION_ROWS,
                 grid: int = DEFAULT_GRID,
                 time_column: str | None = None,
                 time_bucket_seconds: int | None = None,
                 grid_bbox: BBox | None = None,
                 name: str | None = None,
                 buffer_rows: int | None = None):
        if partition_rows < 1:
            raise SchemaError("partition_rows must be >= 1")
        self.path = Path(path)
        self.partition_rows = int(partition_rows)
        self.buffer_rows = int(buffer_rows or 4 * self.partition_rows)
        self.grid_nx = self.grid_ny = max(1, int(grid))
        self.grid_bbox = grid_bbox
        self.time_column = time_column
        self.time_bucket_seconds = (int(time_bucket_seconds)
                                    if time_bucket_seconds else None)
        self.name = name
        self._specs: list[ColumnSpec] | None = None
        #: label -> global code, per categorical column.
        self._cat_codes: dict[str, dict[str, int]] = {}
        self._seq = 0
        #: (key, seq, info) triples; manifest is sorted by (key, seq).
        self._partitions: list[tuple[tuple, int, PartitionInfo]] = []
        #: key -> list of field dicts ({"x","y",attr...}) awaiting flush.
        self._buffers: dict[tuple, list[dict[str, np.ndarray]]] = {}
        self._buffered: dict[tuple, int] = {}
        self._buffered_total = 0
        self._closed = False

        if self.path.exists() and not self.path.is_dir():
            raise SchemaError(f"{self.path} is not a directory")
        if self.path.exists() and any(self.path.iterdir()):
            raise SchemaError(f"{self.path} exists and is not empty")
        self.path.mkdir(parents=True, exist_ok=True)

    # -- schema ------------------------------------------------------------

    def _init_schema(self, table: PointTable) -> None:
        self._specs = []
        for cname in table.column_names:
            col = table.column(cname)
            self._specs.append(ColumnSpec(cname, col.kind))
            if col.kind == CATEGORICAL:
                self._cat_codes[cname] = {}
        if self.name is None:
            self.name = table.name
        if self.time_bucket_seconds and self.time_column is None:
            # Default to the first timestamp column when bucketing.
            for spec in self._specs:
                if spec.kind == TIMESTAMP:
                    self.time_column = spec.name
                    break
        if self.time_bucket_seconds and self.time_column is not None:
            tspec = next((s for s in self._specs
                          if s.name == self.time_column), None)
            if tspec is None or tspec.kind != TIMESTAMP:
                raise SchemaError(
                    f"time_column {self.time_column!r} is not a timestamp "
                    f"column of the ingested schema")

    def _check_schema(self, table: PointTable) -> None:
        names = [s.name for s in self._specs]
        if table.column_names != names:
            raise SchemaError(
                f"chunk schema {table.column_names} does not match the "
                f"store's {names}")
        for spec in self._specs:
            kind = table.column(spec.name).kind
            if kind != spec.kind:
                raise SchemaError(
                    f"column {spec.name!r} is {kind}, store has {spec.kind}")

    def _encode(self, table: PointTable) -> dict[str, np.ndarray]:
        """Chunk columns as raw arrays with global categorical codes."""
        fields: dict[str, np.ndarray] = {"x": table.x, "y": table.y}
        for spec in self._specs:
            col = table.column(spec.name)
            if spec.kind != CATEGORICAL:
                fields[spec.name] = col.values
                continue
            lookup = self._cat_codes[spec.name]
            remap = np.empty(len(col.categories), dtype=np.int32)
            for local_code, label in enumerate(col.categories):
                if label not in lookup:
                    lookup[label] = len(lookup)
                remap[local_code] = lookup[label]
            fields[spec.name] = remap[col.values]
        return fields

    # -- keys --------------------------------------------------------------

    def _keys_of(self, table: PointTable) -> np.ndarray:
        """The (cell, bucket) sort key of every row, as one int64."""
        box = self.grid_bbox
        if box is None or box.width <= 0 or box.height <= 0:
            cell = np.zeros(len(table), dtype=np.int64)
        else:
            # Out-of-grid points clamp to edge cells (before the cast, so
            # far-off points cannot overflow it): the grid is only a
            # locality hint — zone maps are computed from actual data.
            cx = np.clip(np.floor((table.x - box.xmin) / box.width
                                  * self.grid_nx),
                         0, self.grid_nx - 1).astype(np.int64)
            cy = np.clip(np.floor((table.y - box.ymin) / box.height
                                  * self.grid_ny),
                         0, self.grid_ny - 1).astype(np.int64)
            cell = cy * self.grid_nx + cx
        if self.time_bucket_seconds and self.time_column is not None:
            tvals = table.column(self.time_column).values
            bucket = tvals // self.time_bucket_seconds
        else:
            bucket = np.zeros(len(table), dtype=np.int64)
        return cell * (1 << 32) + (bucket & 0xFFFFFFFF)

    @staticmethod
    def _unpack_key(packed: int) -> tuple[int, int]:
        return (int(packed) >> 32, int(packed) & 0xFFFFFFFF)

    # -- ingestion ---------------------------------------------------------

    def add_chunk(self, table: PointTable) -> None:
        """Buffer one chunk, flushing any partition-sized key groups."""
        if self._closed:
            raise SchemaError("writer is closed")
        if self._specs is None:
            self._init_schema(table)
        else:
            self._check_schema(table)
        # An empty chunk still declares its schema and category labels.
        fields = self._encode(table)
        if len(table) == 0:
            return
        if self.grid_bbox is None:
            self.grid_bbox = table.bbox

        keys = self._keys_of(table)
        order = np.argsort(keys, kind="stable")
        sorted_keys = keys[order]
        starts = np.flatnonzero(np.concatenate(
            ([True], sorted_keys[1:] != sorted_keys[:-1])))
        bounds = np.append(starts, len(sorted_keys))
        for gi in range(len(starts)):
            sel = order[bounds[gi]:bounds[gi + 1]]
            key = self._unpack_key(sorted_keys[starts[gi]])
            group = {name: np.ascontiguousarray(arr[sel])
                     for name, arr in fields.items()}
            self._buffers.setdefault(key, []).append(group)
            self._buffered[key] = self._buffered.get(key, 0) + len(sel)
            self._buffered_total += len(sel)
            if self._buffered[key] >= self.partition_rows:
                self._flush_key(key, keep_remainder=True)
        # Over the global budget: evict the largest buffers outright so
        # peak memory stays O(chunk + buffer budget).
        while self._buffered_total > self.buffer_rows and self._buffers:
            largest = max(self._buffered, key=self._buffered.get)
            self._flush_key(largest, keep_remainder=False)

    def write_table(self, table: PointTable) -> None:
        """Ingest a whole in-memory table (one big chunk)."""
        self.add_chunk(table)

    # -- flushing ----------------------------------------------------------

    def _flush_key(self, key: tuple, keep_remainder: bool) -> None:
        groups = self._buffers.pop(key, [])
        count = self._buffered.pop(key, 0)
        if not count:
            return
        fields = {name: (np.concatenate([g[name] for g in groups])
                         if len(groups) > 1 else groups[0][name])
                  for name in groups[0]}
        pos = 0
        while count - pos >= self.partition_rows:
            self._write_partition(
                key, {n: a[pos:pos + self.partition_rows]
                      for n, a in fields.items()})
            pos += self.partition_rows
        self._buffered_total -= pos
        if pos == count:
            return
        tail = {n: a[pos:] for n, a in fields.items()}
        if keep_remainder:
            self._buffers[key] = [tail]
            self._buffered[key] = count - pos
        else:
            self._write_partition(key, tail)
            self._buffered_total -= count - pos

    def _write_partition(self, key: tuple,
                         fields: dict[str, np.ndarray]) -> None:
        seq = self._seq
        self._seq += 1
        columns = [(name, np.ascontiguousarray(fields[name], dtype=dtype))
                   for name, dtype in file_layout(self._specs)]
        bbox, zones = build_zones(
            fields["x"], fields["y"],
            {spec.name: (spec.kind, fields[spec.name])
             for spec in self._specs})
        info = write_partition(self.path / partition_filename(seq), columns,
                               key=key, bbox=bbox, zones=zones)
        self._partitions.append((key, seq, info))

    # -- finish ------------------------------------------------------------

    def close(self) -> Path:
        """Flush every buffer (partial partitions included) and write
        the manifest; returns the store path."""
        if self._closed:
            return self.path
        for key in sorted(self._buffers):
            self._flush_key(key, keep_remainder=False)
        self._closed = True
        specs = []
        for spec in (self._specs or []):
            if spec.kind == CATEGORICAL:
                lookup = self._cat_codes[spec.name]
                labels = tuple(sorted(lookup, key=lookup.get))
                specs.append(ColumnSpec(spec.name, spec.kind, labels))
            else:
                specs.append(spec)
        manifest = Manifest(
            name=self.name or "store",
            partition_rows=self.partition_rows,
            grid_nx=self.grid_nx,
            grid_ny=self.grid_ny,
            grid_bbox=self.grid_bbox,
            time_column=(self.time_column
                         if self.time_bucket_seconds else None),
            time_bucket_seconds=self.time_bucket_seconds,
            columns=specs,
            partitions=[info for _, _, info
                        in sorted(self._partitions,
                                  key=lambda item: (item[0], item[1]))],
        )
        write_manifest(self.path, manifest)
        return self.path

    def __enter__(self) -> "DatasetWriter":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None:
            self.close()
        elif not self._closed:
            # A failed build leaves no half-store behind on fresh paths.
            if not (self.path / "manifest.json").exists():
                shutil.rmtree(self.path, ignore_errors=True)


def build_store(table: PointTable, path, **writer_kwargs):
    """Write ``table`` as a store at ``path`` and open the result."""
    from .dataset import Dataset

    with DatasetWriter(path, **writer_kwargs) as writer:
        writer.write_table(table)
    return Dataset.open(path)


def build_store_from_csv(csv_path, store_path,
                         chunk_rows: int = 100_000,
                         timestamp_columns: tuple[str, ...] = ("t",
                                                               "timestamp"),
                         **writer_kwargs):
    """Stream a CSV into a store without materializing the full table.

    Uses :func:`repro.table.io.iter_csv_chunks`, so peak memory is one
    chunk of parsed rows plus the writer's buffer budget.
    """
    from ..table.io import iter_csv_chunks
    from .dataset import Dataset

    with DatasetWriter(store_path, **writer_kwargs) as writer:
        for chunk in iter_csv_chunks(csv_path, chunk_rows=chunk_rows,
                                     timestamp_columns=timestamp_columns):
            writer.add_chunk(chunk)
    return Dataset.open(store_path)
