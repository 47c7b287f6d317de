"""On-disk format of the out-of-core dataset store (format v2).

A store is a directory of fixed-size **partitions**, one file each,
sorted by a spatial grid key (x/y cell, optional time bucket)::

    store/
      manifest.json     # schema, grid, category domains, partition index
      p00000.part       # one partition: raw columns, then its footer
      p00001.part
      ...

A partition file is its raw columns followed by a JSON footer and the
footer's length::

    x | pad | y | pad | c0 | pad | ... | footer JSON | len(footer) <u8

Columns come in schema order — x, y, then the attributes in manifest
order — each starting at a 64-byte-aligned offset.  They are raw
little-endian arrays (``<f8`` coordinates and numeric, ``<i8``
timestamp, ``<i4`` categorical codes), so a :func:`numpy.frombuffer`
view into one ``mmap`` of the file *is* the column: zero parse, zero
copy, one ``open`` per partition.  Categorical codes refer to one
**global, append-only** category list per column stored in the
manifest, so partitions written at different times stay mutually
consistent and concatenate without re-encoding.

The footer holds the partition's **zone maps** — the metadata pruning
runs on (GeoBlocks-style): point bbox, per-column min/max (NaNs counted
separately), time min/max, and a category-presence bitset — and its
column table, ``[offset, nbytes, crc32]`` per column.  The manifest
duplicates every footer and adds the file's name and size, so a query
prunes the whole store, and mounts any partition, from one small JSON
read.  The footer keeps each file self-describing;
``repro store inspect --check`` verifies that the two agree and
recomputes every column's checksum.
"""

from __future__ import annotations

import json
import mmap
import os
import struct
import zlib
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ..errors import SchemaError
from ..geometry import BBox
from ..table.column import CATEGORICAL, NUMERIC, TIMESTAMP

#: Version stamped into manifests and footers; readers read exactly this.
STORE_FORMAT_VERSION = 2

MANIFEST_NAME = "manifest.json"

#: Every column starts at a multiple of this many bytes into its file.
COLUMN_ALIGN = 64

#: The file's last 8 bytes: the footer's length, little-endian.
FOOTER_LENGTH = struct.Struct("<Q")

#: Column kind -> the little-endian dtype of its raw bytes.
KIND_DTYPES = {
    NUMERIC: "<f8",
    TIMESTAMP: "<i8",
    CATEGORICAL: "<i4",
}


def partition_filename(seq: int) -> str:
    """The file name of the ``seq``-th partition written to a store."""
    return f"p{seq:05d}.part"


@dataclass(frozen=True)
class ColumnSpec:
    """One attribute column of the store schema."""

    name: str
    kind: str
    #: Global category list (categorical columns only).  Append-only:
    #: codes written into earlier partitions never change meaning.
    categories: tuple[str, ...] = ()

    def to_json(self) -> dict:
        payload = {"name": self.name, "kind": self.kind}
        if self.kind == CATEGORICAL:
            payload["categories"] = list(self.categories)
        return payload

    @classmethod
    def from_json(cls, payload: dict) -> "ColumnSpec":
        return cls(payload["name"], payload["kind"],
                   tuple(payload.get("categories") or ()))


@dataclass
class PartitionInfo:
    """One partition's manifest entry: file, zone maps, column table."""

    file: str                            #: file name in the store root
    rows: int
    key: tuple[int, int]                 #: (grid cell id, time bucket)
    bbox: BBox | None                    #: point envelope; None when empty
    zones: dict[str, dict] = field(default_factory=dict)
    nbytes: int = 0                      #: total raw column bytes
    file_bytes: int = 0                  #: size of the partition file
    #: column name -> (offset, nbytes, crc32), x and y included.
    columns: dict[str, tuple[int, int, int]] = field(default_factory=dict)

    def footer_json(self) -> dict:
        """The trailing footer: this entry less the file's name and
        size, which the file itself knows."""
        return {
            "format_version": STORE_FORMAT_VERSION,
            "rows": self.rows,
            "key": list(self.key),
            "bbox": ([self.bbox.xmin, self.bbox.ymin,
                      self.bbox.xmax, self.bbox.ymax]
                     if self.bbox is not None else None),
            "zones": self.zones,
            "nbytes": self.nbytes,
            "columns": {name: list(entry)
                        for name, entry in self.columns.items()},
        }

    def to_json(self) -> dict:
        payload = self.footer_json()
        del payload["format_version"]
        return {"file": self.file, "file_bytes": self.file_bytes, **payload}

    @classmethod
    def from_json(cls, payload: dict) -> "PartitionInfo":
        box = payload.get("bbox")
        return cls(
            file=payload["file"],
            rows=int(payload["rows"]),
            key=tuple(payload["key"]),
            bbox=BBox(*box) if box is not None else None,
            zones=payload.get("zones") or {},
            nbytes=int(payload.get("nbytes", 0)),
            file_bytes=int(payload["file_bytes"]),
            columns={name: tuple(int(v) for v in entry)
                     for name, entry in payload["columns"].items()},
        )

    def check_layout(self, layout: list[tuple[str, str]]) -> None:
        """Raise :class:`SchemaError` unless the column table places
        every ``(name, dtype)`` of ``layout`` aligned and whole before
        the footer, so the views a mount makes cannot fail."""
        end = self.file_bytes - FOOTER_LENGTH.size
        for name, dtype in layout:
            entry = self.columns.get(name)
            if entry is None:
                raise SchemaError(
                    f"partition {self.file} has no column {name!r}")
            offset, nbytes, _ = entry
            if (offset % COLUMN_ALIGN or offset + nbytes > end
                    or nbytes != self.rows * np.dtype(dtype).itemsize):
                raise SchemaError(
                    f"partition {self.file}: column {name!r} at "
                    f"[{offset}, +{nbytes}) does not hold {self.rows} "
                    f"{dtype} rows in a {self.file_bytes}-byte file")


def file_layout(columns: list[ColumnSpec]) -> list[tuple[str, str]]:
    """``(name, dtype)`` of every column in file order: x, y, then the
    attribute columns in schema order."""
    return [("x", "<f8"), ("y", "<f8")] + [
        (spec.name, KIND_DTYPES[spec.kind]) for spec in columns]


# -- zone maps ---------------------------------------------------------------


def _scalar(value):
    """JSON-safe scalar (numpy types -> Python, non-finite -> repr str)."""
    value = float(value)
    if np.isfinite(value):
        return value
    return repr(value)  # 'inf' / '-inf' survive a JSON round trip below


def _unscalar(value):
    if value is None:
        return None
    return float(value)


def column_zone(kind: str, values: np.ndarray) -> dict:
    """The zone map of one column's raw values.

    * numeric: min/max over non-NaN entries (None when all-NaN or
      empty) plus the NaN count — ``!=`` pruning must know whether NaN
      rows exist, since ``NaN != v`` is True;
    * timestamp: integer min/max;
    * categorical: a presence bitset over global codes (hex string).
    """
    zone: dict = {"kind": kind}
    if kind == NUMERIC:
        nan_count = int(np.isnan(values).sum()) if len(values) else 0
        live = len(values) - nan_count
        zone["nan_count"] = nan_count
        if live:
            zone["min"] = _scalar(np.nanmin(values))
            zone["max"] = _scalar(np.nanmax(values))
        else:
            zone["min"] = zone["max"] = None
    elif kind == TIMESTAMP:
        if len(values):
            zone["min"] = int(values.min())
            zone["max"] = int(values.max())
        else:
            zone["min"] = zone["max"] = None
    else:  # CATEGORICAL
        bits = 0
        for code in np.unique(values):
            bits |= 1 << int(code)
        zone["bitset"] = hex(bits)
    return zone


def zone_min(zone: dict):
    value = zone.get("min")
    return _unscalar(value) if not isinstance(value, str) else float(value)


def zone_max(zone: dict):
    value = zone.get("max")
    return _unscalar(value) if not isinstance(value, str) else float(value)


def zone_bitset(zone: dict) -> int:
    return int(zone.get("bitset", "0x0"), 16)


def build_zones(x: np.ndarray, y: np.ndarray,
                columns: dict[str, tuple[str, np.ndarray]]
                ) -> tuple[BBox | None, dict[str, dict]]:
    """(bbox, per-column zone maps) for one partition's raw arrays."""
    bbox = None
    if len(x):
        bbox = BBox(float(x.min()), float(y.min()),
                    float(x.max()), float(y.max()))
    zones = {name: column_zone(kind, values)
             for name, (kind, values) in columns.items()}
    return bbox, zones


# -- manifest ----------------------------------------------------------------


@dataclass
class Manifest:
    """The store's one-file index: schema + grid + partition zone maps."""

    name: str
    partition_rows: int
    grid_nx: int
    grid_ny: int
    grid_bbox: BBox | None
    time_column: str | None
    time_bucket_seconds: int | None
    columns: list[ColumnSpec]
    partitions: list[PartitionInfo]

    @property
    def rows(self) -> int:
        return sum(p.rows for p in self.partitions)

    def column(self, name: str) -> ColumnSpec:
        for spec in self.columns:
            if spec.name == name:
                return spec
        raise SchemaError(
            f"store has no column {name!r}; "
            f"available: {[c.name for c in self.columns]}")

    def to_json(self) -> dict:
        return {
            "format_version": STORE_FORMAT_VERSION,
            "name": self.name,
            "rows": self.rows,
            "partition_rows": self.partition_rows,
            "grid": {
                "nx": self.grid_nx,
                "ny": self.grid_ny,
                "bbox": ([self.grid_bbox.xmin, self.grid_bbox.ymin,
                          self.grid_bbox.xmax, self.grid_bbox.ymax]
                         if self.grid_bbox is not None else None),
            },
            "time": ({"column": self.time_column,
                      "bucket_seconds": self.time_bucket_seconds}
                     if self.time_column is not None else None),
            "columns": [c.to_json() for c in self.columns],
            "partitions": [p.to_json() for p in self.partitions],
        }

    @classmethod
    def from_json(cls, payload: dict) -> "Manifest":
        _check_version(payload, "store")
        grid = payload.get("grid") or {}
        gbox = grid.get("bbox")
        tinfo = payload.get("time")
        manifest = cls(
            name=payload.get("name", "store"),
            partition_rows=int(payload["partition_rows"]),
            grid_nx=int(grid.get("nx", 1)),
            grid_ny=int(grid.get("ny", 1)),
            grid_bbox=BBox(*gbox) if gbox is not None else None,
            time_column=tinfo["column"] if tinfo else None,
            time_bucket_seconds=(int(tinfo["bucket_seconds"])
                                 if tinfo else None),
            columns=[ColumnSpec.from_json(c) for c in payload["columns"]],
            partitions=[PartitionInfo.from_json(p)
                        for p in payload["partitions"]],
        )
        layout = file_layout(manifest.columns)
        for info in manifest.partitions:
            info.check_layout(layout)
        return manifest


def _check_version(payload: dict, what: str) -> None:
    """Reject anything but this reader's format, naming the way out."""
    version = int(payload.get("format_version", 1))
    if version > STORE_FORMAT_VERSION:
        raise SchemaError(
            f"{what} format v{version} is newer than this reader "
            f"(v{STORE_FORMAT_VERSION})")
    if version < STORE_FORMAT_VERSION:
        raise SchemaError(
            f"{what} is format v{version}, this reader reads only "
            f"v{STORE_FORMAT_VERSION}: rebuild it from its source with "
            f"`repro store build`")


def write_manifest(path: Path, manifest: Manifest) -> None:
    tmp = path / (MANIFEST_NAME + ".tmp")
    tmp.write_text(json.dumps(manifest.to_json(), indent=1) + "\n")
    tmp.replace(path / MANIFEST_NAME)


def read_manifest(path: Path) -> Manifest:
    manifest_path = Path(path) / MANIFEST_NAME
    if not manifest_path.exists():
        raise SchemaError(f"{path} is not a dataset store "
                          f"(no {MANIFEST_NAME})")
    return Manifest.from_json(json.loads(manifest_path.read_text()))


# -- partition files -------------------------------------------------------


def write_partition(path: Path, columns: list[tuple[str, np.ndarray]], *,
                    key: tuple[int, int], bbox: BBox | None,
                    zones: dict[str, dict]) -> PartitionInfo:
    """Write one partition file and return its manifest entry.

    ``columns`` are ``(name, contiguous little-endian array)`` pairs in
    file order (:func:`file_layout`).  Each lands at the next
    :data:`COLUMN_ALIGN` boundary; the footer and its length follow.
    """
    path = Path(path)
    table: dict[str, tuple[int, int, int]] = {}
    offset = 0
    with open(path, "xb") as handle:
        for name, raw in columns:
            pad = -offset % COLUMN_ALIGN
            handle.write(bytes(pad))
            offset += pad
            handle.write(raw)
            table[name] = (offset, raw.nbytes, zlib.crc32(raw))
            offset += raw.nbytes
        info = PartitionInfo(
            path.name, len(columns[0][1]), key, bbox, zones,
            nbytes=sum(nbytes for _, nbytes, _ in table.values()),
            columns=table)
        footer = json.dumps(info.footer_json()).encode()
        handle.write(footer)
        handle.write(FOOTER_LENGTH.pack(len(footer)))
    info.file_bytes = offset + len(footer) + FOOTER_LENGTH.size
    return info


def map_partition(path: str, info: PartitionInfo,
                  layout: list[tuple[str, str]]) -> dict[str, np.ndarray]:
    """Mount one partition file: one ``open``, one ``fstat``, one
    read-only ``mmap``, and a zero-copy ``np.frombuffer`` view per
    ``(name, dtype)`` of ``layout`` at the offsets ``info`` lists.

    A missing file, or one whose size is not ``info.file_bytes``,
    raises :class:`SchemaError`.  The offsets need no check here:
    :meth:`PartitionInfo.check_layout` vetted them when the manifest
    was read.
    """
    try:
        fd = os.open(path, os.O_RDONLY)
    except OSError as exc:
        raise SchemaError(f"cannot open partition file {path}: "
                          f"{exc.strerror}") from None
    try:
        size = os.fstat(fd).st_size
        if size != info.file_bytes:
            raise SchemaError(f"{path} holds {size} bytes, manifest says "
                              f"{info.file_bytes}")
        buf = mmap.mmap(fd, 0, access=mmap.ACCESS_READ)
    finally:
        os.close(fd)
    return {name: np.frombuffer(buf, dtype, count=info.rows,
                                offset=info.columns[name][0])
            for name, dtype in layout}


def read_footer(path) -> PartitionInfo:
    """The manifest entry a partition file gives by itself: its
    trailing footer plus the file's name and size."""
    path = Path(path)
    try:
        with open(path, "rb") as handle:
            size = handle.seek(0, os.SEEK_END)
            if size < FOOTER_LENGTH.size:
                raise SchemaError(f"{path.name} is too short for a footer")
            handle.seek(size - FOOTER_LENGTH.size)
            (length,) = FOOTER_LENGTH.unpack(
                handle.read(FOOTER_LENGTH.size))
            if length > size - FOOTER_LENGTH.size:
                raise SchemaError(f"{path.name}: footer length {length} "
                                  f"exceeds the file")
            handle.seek(size - FOOTER_LENGTH.size - length)
            payload = json.loads(handle.read(length))
    except OSError as exc:
        raise SchemaError(f"cannot read {path}: {exc.strerror}") from None
    except ValueError as exc:  # bad UTF-8 or JSON
        raise SchemaError(f"{path.name}: unreadable footer ({exc})") \
            from None
    if not isinstance(payload, dict):
        raise SchemaError(f"{path.name}: footer is not a JSON object")
    _check_version(payload, f"partition {path.name}")
    return PartitionInfo.from_json(
        {**payload, "file": path.name, "file_bytes": size})


def check_partition(root: Path, info: PartitionInfo) -> list[str]:
    """Everything wrong with one partition file against its manifest
    entry — size, trailing footer, each column's crc32 — as messages
    naming the file (and column); empty when the file is sound."""
    path = Path(root) / info.file
    try:
        size = path.stat().st_size
    except FileNotFoundError:
        return [f"{info.file}: file is missing"]
    if size != info.file_bytes:
        return [f"{info.file}: {size} bytes, manifest says "
                f"{info.file_bytes}"]
    problems = []
    try:
        if read_footer(path).to_json() != info.to_json():
            problems.append(
                f"{info.file}: footer differs from the manifest entry")
    except (SchemaError, KeyError, TypeError) as exc:
        problems.append(f"{info.file}: bad footer ({exc})")
    with open(path, "rb") as handle:
        for name, (offset, nbytes, crc) in info.columns.items():
            handle.seek(offset)
            actual = zlib.crc32(handle.read(nbytes))
            if actual != crc:
                problems.append(
                    f"{info.file}: column {name!r} crc32 {actual:#010x}, "
                    f"manifest says {crc:#010x}")
    return problems
