"""Writer/reader round trips.

A store is a *reordering* of its input (rows are grouped by grid key),
so round-trip equality is checked on sorted row tuples — and on exact
bit patterns, since column files are raw little-endian dumps of the
ingested arrays.
"""

import numpy as np
import pytest

from repro.errors import SchemaError
from repro.store import Dataset, DatasetWriter, build_store
from repro.table import PointTable

from .conftest import make_store_table


def row_key(table: PointTable) -> np.ndarray:
    """A stable sort order for comparing reordered tables."""
    cols = [table.x, table.y]
    for name in table.column_names:
        col = table.column(name)
        cols.append(col.values.astype(np.float64, copy=False))
    return np.lexsort(cols[::-1])


def assert_same_rows(a: PointTable, b: PointTable):
    assert len(a) == len(b)
    assert a.column_names == b.column_names
    ka, kb = row_key(a), row_key(b)
    assert np.array_equal(a.x[ka], b.x[kb])
    assert np.array_equal(a.y[ka], b.y[kb])
    for name in a.column_names:
        ca, cb = a.column(name), b.column(name)
        assert ca.kind == cb.kind
        if ca.kind == "categorical":
            la = np.asarray(ca.categories)[ca.values][ka]
            lb = np.asarray(cb.categories)[cb.values][kb]
            assert np.array_equal(la, lb)
        else:
            assert np.array_equal(ca.values[ka], cb.values[kb],
                                  equal_nan=True)


class TestRoundTrip:
    def test_store_round_trips_rows(self, store, store_table):
        assert_same_rows(store.to_table(), store_table)

    def test_partition_sizes_bounded(self, store):
        for info in store.partitions:
            assert 0 < info.rows <= store.manifest.partition_rows

    def test_property_random_tables(self, tmp_path):
        """Round trip across varied shapes, seeds, and writer knobs."""
        for seed, rows, partition_rows, grid in [
                (1, 1, 16, 1), (2, 17, 16, 2), (3, 503, 64, 3),
                (4, 2_000, 256, 8), (5, 999, 1000, 4)]:
            table = make_store_table(rows, seed=seed)
            path = tmp_path / f"s{seed}"
            ds = build_store(table, path, partition_rows=partition_rows,
                             grid=grid)
            assert_same_rows(ds.to_table(), table)
            for info in ds.partitions:
                assert info.rows <= partition_rows

    def test_nan_values_round_trip(self, tmp_path):
        gen = np.random.default_rng(6)
        v = gen.uniform(0, 1, 100)
        v[::7] = np.nan
        table = PointTable.from_arrays(gen.uniform(0, 9, 100),
                                       gen.uniform(0, 9, 100),
                                       name="nans", v=v)
        ds = build_store(table, tmp_path / "nans", partition_rows=16)
        assert_same_rows(ds.to_table(), table)


class TestChunkedIngestion:
    def test_chunked_equals_whole(self, tmp_path, store_table):
        whole = build_store(store_table, tmp_path / "whole",
                            partition_rows=2_048, grid=4)
        with DatasetWriter(tmp_path / "chunked", partition_rows=2_048,
                           grid=4, grid_bbox=store_table.bbox,
                           buffer_rows=4_000) as writer:
            for lo in range(0, len(store_table), 7_001):
                sel = np.arange(lo, min(lo + 7_001, len(store_table)))
                writer.add_chunk(store_table.take(sel))
        chunked = Dataset.open(tmp_path / "chunked")
        assert_same_rows(chunked.to_table(), whole.to_table())

    def test_categorical_domain_is_global(self, tmp_path):
        """Labels arriving in later chunks extend the global domain
        without invalidating codes written earlier."""
        def chunk(labels, n=50, seed=0):
            gen = np.random.default_rng(seed)
            return PointTable.from_arrays(
                gen.uniform(0, 9, n), gen.uniform(0, 9, n), name="c",
                kind=np.array(labels * (n // len(labels)))[:n])

        with DatasetWriter(tmp_path / "cats", partition_rows=16) as writer:
            writer.add_chunk(chunk(["b", "a"], seed=1))
            writer.add_chunk(chunk(["z", "a"], seed=2))
        ds = Dataset.open(tmp_path / "cats")
        spec = ds.manifest.column("kind")
        # Chunk 1 contributes its (sorted) domain a, b; z appends after.
        assert spec.categories == ("a", "b", "z")
        labels = set()
        for _, part in ds.iter_partition_tables():
            col = part.column("kind")
            labels |= set(np.asarray(col.categories)[col.values])
        assert labels == {"a", "b", "z"}

    def test_schema_mismatch_rejected(self, tmp_path):
        gen = np.random.default_rng(3)
        a = PointTable.from_arrays(gen.uniform(0, 1, 10),
                                   gen.uniform(0, 1, 10), name="a",
                                   v=gen.uniform(0, 1, 10))
        b = PointTable.from_arrays(gen.uniform(0, 1, 10),
                                   gen.uniform(0, 1, 10), name="b",
                                   w=gen.uniform(0, 1, 10))
        with DatasetWriter(tmp_path / "s", partition_rows=16) as writer:
            writer.add_chunk(a)
            with pytest.raises(SchemaError, match="does not match"):
                writer.add_chunk(b)
            writer.add_chunk(a)  # still usable after the rejection


class TestTargetPath:
    def test_nonempty_dir_rejected(self, tmp_path):
        path = tmp_path / "busy"
        build_store(make_store_table(100, seed=12), path)
        with pytest.raises(SchemaError, match="exists and is not empty"):
            DatasetWriter(path)

    def test_file_path_rejected(self, tmp_path):
        path = tmp_path / "plain.txt"
        path.write_text("not a store")
        with pytest.raises(SchemaError, match="plain.txt is not a directory"):
            DatasetWriter(path)
        assert path.read_text() == "not a store"

    def test_failed_fresh_build_leaves_nothing(self, tmp_path):
        path = tmp_path / "failed"
        with pytest.raises(RuntimeError):
            with DatasetWriter(path, partition_rows=16) as writer:
                writer.add_chunk(make_store_table(100, seed=13))
                raise RuntimeError("boom")
        assert not path.exists()
