"""Zone maps, manifest/footer serialization and the partition file
layout (format v2).

The edge cases the pruner leans on: empty partitions, single-point
partitions, all-NaN columns (min/max must be None, not NaN), and
categorical bitsets that survive a JSON round trip untouched.  The
layout: every column 64-byte aligned, the trailing footer equal to the
manifest entry, and a store's rows read back bitwise as written.
"""

import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.errors import SchemaError
from repro.geometry import BBox
from repro.store import Dataset, DatasetWriter
from repro.store.format import (
    COLUMN_ALIGN,
    STORE_FORMAT_VERSION,
    ColumnSpec,
    Manifest,
    build_zones,
    check_partition,
    column_zone,
    read_footer,
    read_manifest,
    write_manifest,
    write_partition,
    zone_bitset,
    zone_max,
    zone_min,
)
from repro.table import PointTable
from repro.table.column import CATEGORICAL, NUMERIC, TIMESTAMP, Column


class TestColumnZone:
    def test_numeric_min_max_nan_count(self):
        zone = column_zone(NUMERIC, np.array([3.0, np.nan, -1.5, 8.0]))
        assert zone_min(zone) == -1.5
        assert zone_max(zone) == 8.0
        assert zone["nan_count"] == 1

    def test_empty_column_has_none_bounds(self):
        for kind in (NUMERIC, TIMESTAMP):
            zone = column_zone(kind, np.empty(0))
            assert zone_min(zone) is None
            assert zone_max(zone) is None

    def test_single_point_min_equals_max(self):
        zone = column_zone(NUMERIC, np.array([4.25]))
        assert zone_min(zone) == zone_max(zone) == 4.25

    def test_all_nan_column_has_none_bounds_and_full_count(self):
        zone = column_zone(NUMERIC, np.full(7, np.nan))
        assert zone_min(zone) is None
        assert zone_max(zone) is None
        assert zone["nan_count"] == 7

    def test_infinities_survive_json(self):
        import json

        zone = column_zone(NUMERIC, np.array([-np.inf, 1.0, np.inf]))
        back = json.loads(json.dumps(zone))
        assert zone_min(back) == -np.inf
        assert zone_max(back) == np.inf

    def test_timestamp_zone_is_integer(self):
        zone = column_zone(TIMESTAMP, np.array([30, 10, 20], dtype=np.int64))
        assert zone["min"] == 10 and zone["max"] == 30

    def test_categorical_bitset_presence(self):
        zone = column_zone(CATEGORICAL, np.array([0, 2, 2, 5], dtype=np.int32))
        bits = zone_bitset(zone)
        assert bits == (1 << 0) | (1 << 2) | (1 << 5)
        # Absent codes are absent: code 1 was never written.
        assert not bits >> 1 & 1

    def test_categorical_empty_bitset(self):
        zone = column_zone(CATEGORICAL, np.empty(0, dtype=np.int32))
        assert zone_bitset(zone) == 0


class TestBuildZones:
    def test_bbox_and_zones(self):
        x = np.array([1.0, 5.0, 3.0])
        y = np.array([2.0, 0.5, 4.0])
        bbox, zones = build_zones(x, y, {"v": (NUMERIC, np.array([1., 2., 3.]))})
        assert bbox == BBox(1.0, 0.5, 5.0, 4.0)
        assert zone_min(zones["v"]) == 1.0

    def test_empty_partition_has_no_bbox(self):
        bbox, zones = build_zones(np.empty(0), np.empty(0),
                                  {"v": (NUMERIC, np.empty(0))})
        assert bbox is None
        assert zone_min(zones["v"]) is None


def _partition(root: Path, seq: int = 0):
    """A three-row partition file of schema (fare, kind) under ``root``."""
    fare = np.array([1.0, 2.0, np.nan])
    kind = np.array([0, 3, 0], dtype=np.int32)
    columns = [("x", np.array([0.0, 0.5, 1.0])),
               ("y", np.array([1.0, 0.0, 0.25])),
               ("fare", fare), ("kind", kind)]
    return write_partition(
        root / f"p{seq:05d}.part", columns, key=(2, 1),
        bbox=BBox(0, 0, 1, 1),
        zones={"fare": column_zone(NUMERIC, fare),
               "kind": column_zone(CATEGORICAL, kind)})


class TestManifestRoundTrip:
    def _manifest(self, root: Path):
        return Manifest(
            name="trip", partition_rows=1024, grid_nx=4, grid_ny=4,
            grid_bbox=BBox(0, 0, 10, 10), time_column="t",
            time_bucket_seconds=3600,
            columns=[ColumnSpec("fare", NUMERIC),
                     ColumnSpec("kind", CATEGORICAL, ("a", "b", "c", "d"))],
            partitions=[_partition(root)])

    def test_round_trip(self, tmp_path):
        manifest = self._manifest(tmp_path)
        write_manifest(tmp_path, manifest)
        back = read_manifest(tmp_path)
        assert back.to_json() == manifest.to_json()
        assert back.rows == 3
        assert back.column("kind").categories == ("a", "b", "c", "d")
        assert zone_bitset(back.partitions[0].zones["kind"]) == 0b1001

    def test_footer_round_trip(self, tmp_path):
        info = self._manifest(tmp_path).partitions[0]
        back = read_footer(tmp_path / info.file)
        assert back.to_json() == info.to_json()
        assert back.file_bytes == (tmp_path / info.file).stat().st_size

    def test_check_names_a_footer_that_disagrees(self, tmp_path):
        info = self._manifest(tmp_path).partitions[0]
        assert check_partition(tmp_path, info) == []
        path = tmp_path / info.file
        data = path.read_bytes()
        # Same length, other row count: only the footer is wrong.
        path.write_bytes(data.replace(b'"rows": 3', b'"rows": 4'))
        assert check_partition(tmp_path, info) == [
            f"{info.file}: footer differs from the manifest entry"]

    def test_newer_format_rejected(self, tmp_path):
        manifest = self._manifest(tmp_path)
        payload = manifest.to_json()
        payload["format_version"] = STORE_FORMAT_VERSION + 1

        (tmp_path / "manifest.json").write_text(json.dumps(payload))
        with pytest.raises(SchemaError, match="newer"):
            read_manifest(tmp_path)

    def test_non_store_directory_rejected(self, tmp_path):
        with pytest.raises(SchemaError, match="not a dataset store"):
            read_manifest(tmp_path)

    def test_unknown_column_lookup(self, tmp_path):
        with pytest.raises(SchemaError, match="no column"):
            self._manifest(tmp_path).column("nope")

    def test_misplaced_column_rejected_on_read(self, tmp_path):
        """A column table that would not fit the file fails when the
        manifest is read, never as a ValueError at mount."""
        manifest = self._manifest(tmp_path)
        for shift in (8, 10_000):  # misaligned; past the footer
            payload = manifest.to_json()
            payload["partitions"][0]["columns"]["fare"][0] += shift
            (tmp_path / "manifest.json").write_text(json.dumps(payload))
            with pytest.raises(SchemaError, match="does not hold"):
                read_manifest(tmp_path)
        payload = manifest.to_json()
        del payload["partitions"][0]["columns"]["kind"]
        (tmp_path / "manifest.json").write_text(json.dumps(payload))
        with pytest.raises(SchemaError, match="no column 'kind'"):
            read_manifest(tmp_path)


def _v1_store(root: Path) -> Path:
    """A store as format v1 laid it out: a directory per partition."""
    (root / "p00000").mkdir(parents=True)
    np.array([1.0]).tofile(root / "p00000" / "x.bin")
    np.array([2.0]).tofile(root / "p00000" / "y.bin")
    (root / "manifest.json").write_text(json.dumps({
        "format_version": 1, "name": "old", "rows": 1,
        "partition_rows": 16,
        "grid": {"nx": 1, "ny": 1, "bbox": [1.0, 2.0, 1.0, 2.0]},
        "time": None, "columns": [],
        "partitions": [{"dir": "p00000", "rows": 1, "key": [0, 0],
                        "bbox": [1.0, 2.0, 1.0, 2.0], "zones": {},
                        "nbytes": 16}]}))
    return root


class TestFormatV1Rejected:
    def test_open_names_the_rebuild(self, tmp_path):
        path = _v1_store(tmp_path / "old")
        with pytest.raises(SchemaError, match="repro store build"):
            Dataset.open(path)


# -- layout round trip --------------------------------------------------------

KINDS = (NUMERIC, TIMESTAMP, CATEGORICAL)
LABELS = tuple("abcdefgh")
INT64 = np.iinfo(np.int64)


@st.composite
def chunk_streams(draw):
    """A schema with any mix of column kinds, and 1-4 chunks of it
    (0, 1 or many rows each) whose categorical domains grow: chunk i
    knows a prefix of LABELS no shorter than chunk i-1's."""
    kinds = draw(st.lists(st.sampled_from(KINDS), max_size=4))
    sizes = draw(st.lists(st.one_of(st.just(0), st.just(1),
                                    st.integers(2, 60)),
                          min_size=1, max_size=4))
    domain = 1
    chunks = []
    for n in sizes:
        domain = draw(st.integers(domain, len(LABELS)))
        coord = st.floats(-1e12, 1e12, allow_nan=False, width=64)
        x = draw(arrays(np.float64, n, elements=coord))
        y = draw(arrays(np.float64, n, elements=coord))
        columns = {}
        for i, kind in enumerate(kinds):
            name = f"c{i}"
            if kind == NUMERIC:
                values = draw(arrays(np.float64, n, elements=st.floats(
                    allow_nan=True, allow_infinity=True, width=64)))
                columns[name] = Column(name, kind, values)
            elif kind == TIMESTAMP:
                values = draw(arrays(np.int64, n, elements=st.integers(
                    INT64.min, INT64.max)))
                columns[name] = Column(name, kind, values)
            else:
                values = draw(arrays(np.int32, n, elements=st.integers(
                    0, domain - 1)))
                columns[name] = Column(name, kind, values, LABELS[:domain])
        chunks.append(PointTable(x, y, columns, name="drawn"))
    return chunks, domain


class TestLayoutRoundTrip:
    @settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(stream=chunk_streams(),
           partition_rows=st.sampled_from([1, 3, 16, 1_000]))
    def test_store_reads_back_bitwise(self, stream, partition_rows):
        """One grid cell and no time buckets keep the input's row order,
        so the store must read back as the concatenated chunks, byte for
        byte (NaN payloads and ±inf included)."""
        chunks, domain = stream
        with tempfile.TemporaryDirectory() as tmp:
            root = Path(tmp) / "s"
            with DatasetWriter(root, partition_rows=partition_rows,
                               grid=1) as writer:
                for chunk in chunks:
                    writer.add_chunk(chunk)
            ds = Dataset.open(root)
            for info in ds.partitions:
                assert all(offset % COLUMN_ALIGN == 0
                           for offset, _, _ in info.columns.values())
                assert list(info.columns) == ["x", "y"] + ds.column_names
                assert read_footer(root / info.file).to_json() == \
                    info.to_json()
                assert check_partition(root, info) == []
            assert sorted(p.name for p in root.iterdir()) == sorted(
                ["manifest.json"] + [info.file for info in ds.partitions])

            out = ds.to_table()
            assert out.x.tobytes() == np.concatenate(
                [c.x for c in chunks]).tobytes()
            assert out.y.tobytes() == np.concatenate(
                [c.y for c in chunks]).tobytes()
            assert out.column_names == chunks[0].column_names
            for name in out.column_names:
                want = np.concatenate([c.column(name).values
                                       for c in chunks])
                got = out.column(name)
                assert got.values.dtype == want.dtype
                assert got.values.tobytes() == want.tobytes()
                if got.kind == CATEGORICAL:
                    assert got.categories == LABELS[:domain]
            ds.drop_mounts()
