"""Tests for the command-line interface."""

import csv

import numpy as np
import pytest

from repro.cli import main
from repro.geometry import write_geojson
from repro.table import PointTable, save_npz, timestamp_column


@pytest.fixture(scope="module")
def data_files(tmp_path_factory, simple_regions):
    """A small table + region files on disk for CLI runs."""
    root = tmp_path_factory.mktemp("cli")
    gen = np.random.default_rng(3)
    n = 20_000
    table = PointTable.from_arrays(
        gen.uniform(0, 100, n), gen.uniform(0, 100, n), name="pts",
        fare=gen.exponential(10, n),
        t=timestamp_column("t", np.sort(gen.integers(0, 10_000, n))),
        kind=gen.choice(["a", "b"], n))
    data = root / "pts.npz"
    save_npz(table, data)
    regions = root / "regions.geojson"
    props = [{"name": n} for n in simple_regions.region_names]
    write_geojson(regions, list(simple_regions.geometries), props)
    return {"data": str(data), "regions": str(regions), "table": table,
            "region_set": simple_regions, "root": root}


SQL = ("SELECT COUNT(*) FROM pts, regions "
       "WHERE pts.loc INSIDE regions.geometry GROUP BY regions.id")


class TestQueryCommand:
    def test_prints_results(self, data_files, capsys):
        code = main(["query", SQL, "--data", data_files["data"],
                     "--regions", data_files["regions"],
                     "--method", "accurate"])
        assert code == 0
        out = capsys.readouterr().out
        assert "COUNT(*)" in out
        assert "disc" in out  # region names printed

    def test_csv_export_matches_exact(self, data_files, tmp_path, capsys):
        out_csv = tmp_path / "result.csv"
        code = main(["query", SQL, "--data", data_files["data"],
                     "--regions", data_files["regions"],
                     "--method", "accurate", "--csv", str(out_csv)])
        assert code == 0
        with open(out_csv) as handle:
            rows = list(csv.DictReader(handle))
        assert len(rows) == len(data_files["region_set"])

        from repro.baselines import naive_join
        from repro.core import SpatialAggregation

        want = naive_join(data_files["table"], data_files["region_set"],
                          SpatialAggregation.count())
        by_name = {r["region"]: float(r["value"]) for r in rows}
        for name, value in want.as_dict().items():
            assert by_name[name] == pytest.approx(value)

    def test_bounds_in_csv_for_bounded(self, data_files, tmp_path):
        out_csv = tmp_path / "bounded.csv"
        main(["query", SQL, "--data", data_files["data"],
              "--regions", data_files["regions"],
              "--method", "bounded", "--csv", str(out_csv)])
        with open(out_csv) as handle:
            rows = list(csv.DictReader(handle))
        assert "lower" in rows[0] and "upper" in rows[0]
        for row in rows:
            assert (float(row["lower"]) <= float(row["value"])
                    <= float(row["upper"]))

    def test_filterful_sql(self, data_files, capsys):
        sql = ("SELECT AVG(fare) FROM pts, regions "
               "WHERE pts.loc INSIDE regions.geometry "
               "AND kind = 'a' AND t BETWEEN 0 AND 5000")
        assert main(["query", sql, "--data", data_files["data"],
                     "--regions", data_files["regions"]]) == 0
        assert "AVG(fare)" in capsys.readouterr().out

    def test_bad_sql_is_clean_error(self, data_files, capsys):
        code = main(["query", "SELECT FROM", "--data", data_files["data"],
                     "--regions", data_files["regions"]])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_missing_file_is_clean_error(self, data_files, capsys):
        code = main(["query", SQL, "--data", "/nope/missing.npz",
                     "--regions", data_files["regions"]])
        assert code == 2


class TestCompareCommand:
    def test_reports_agreement(self, data_files, capsys):
        code = main(["compare", SQL, "--data", data_files["data"],
                     "--regions", data_files["regions"],
                     "--methods", "bounded,accurate,grid",
                     "--resolution", "256"])
        assert code == 0
        out = capsys.readouterr().out
        assert "bounded" in out and "accurate" in out and "grid" in out
        assert "bounds contain exact: True" in out


class TestGenerateCommand:
    def test_writes_all_files(self, tmp_path, capsys):
        code = main(["generate", "--out-dir", str(tmp_path / "demo"),
                     "--taxi-rows", "5000", "--complaint-rows", "2000",
                     "--crime-rows", "1000", "--months", "1"])
        assert code == 0
        produced = {p.name for p in (tmp_path / "demo").iterdir()}
        assert {"taxi.npz", "complaints311.npz", "crime.npz"} <= produced
        assert any(name.endswith(".geojson") for name in produced)

    def test_generated_files_queryable(self, tmp_path, capsys):
        demo = tmp_path / "demo2"
        main(["generate", "--out-dir", str(demo), "--taxi-rows", "5000",
              "--complaint-rows", "2000", "--crime-rows", "1000",
              "--months", "1"])
        sql = ("SELECT COUNT(*) FROM taxi, neighborhoods "
               "WHERE taxi.loc INSIDE neighborhoods.geometry")
        code = main(["query", sql,
                     "--data", str(demo / "taxi.npz"),
                     "--regions", str(demo / "neighborhoods.geojson"),
                     "--method", "accurate", "--resolution", "256"])
        assert code == 0


class TestSessionCommand:
    def test_session_report(self, data_files, capsys):
        code = main(["session", "--data", data_files["data"],
                     "--regions", data_files["regions"],
                     "--resolution", "256"])
        assert code == 0
        out = capsys.readouterr().out
        assert "interactions" in out
        assert "time-brush" in out


class TestStoreQueryCommand:
    def test_prints_partitions_and_results(self, data_files, capsys):
        store = data_files["root"] / "store"
        assert main(["store", "build", "--data", data_files["data"],
                     "--out", str(store), "--partition-rows", "4096",
                     "--grid", "2"]) == 0
        code = main(["store", "query", SQL, "--store", str(store),
                     "--regions", data_files["regions"],
                     "--method", "tiled", "--resolution", "2048"])
        assert code == 0
        out = capsys.readouterr().out
        assert "-- partitions:" in out and "-- mounts:" in out
        assert "disc" in out


class TestStoreInspectCheck:
    @pytest.fixture
    def store(self, data_files, tmp_path):
        path = tmp_path / "store"
        assert main(["store", "build", "--data", data_files["data"],
                     "--out", str(path), "--partition-rows", "4096",
                     "--grid", "2"]) == 0
        return path

    def test_clean_store_passes(self, store, capsys):
        capsys.readouterr()
        assert main(["store", "inspect", str(store), "--check",
                     "--partitions"]) == 0
        out = capsys.readouterr().out
        assert "p00000.part: rows=" in out
        assert "BAD" not in out and ", 0 problems" in out

    def test_flipped_column_byte_is_named(self, store, capsys):
        from repro.store import read_manifest

        info = read_manifest(store).partitions[1]
        offset, nbytes, _ = info.columns["fare"]
        path = store / info.file
        data = bytearray(path.read_bytes())
        data[offset + nbytes // 2] ^= 0x01
        path.write_bytes(bytes(data))
        capsys.readouterr()
        assert main(["store", "inspect", str(store), "--check"]) == 1
        bad = [line for line in capsys.readouterr().out.splitlines()
               if "BAD" in line]
        assert len(bad) == 1
        assert info.file in bad[0] and "column 'fare'" in bad[0]

    def test_truncated_file_fails(self, store, capsys):
        from repro.store import read_manifest

        info = read_manifest(store).partitions[0]
        path = store / info.file
        path.write_bytes(path.read_bytes()[:info.columns["y"][0]])
        capsys.readouterr()
        assert main(["store", "inspect", str(store), "--check"]) == 1
        bad = [line for line in capsys.readouterr().out.splitlines()
               if "BAD" in line]
        assert len(bad) == 1 and info.file in bad[0]
        assert f"manifest says {info.file_bytes}" in bad[0]


class TestRetiredFlags:
    """The fork flags went with the forks, the speculation flags with
    the speculative prefetcher, ``serve --shards`` with the routed
    worker pool, ``session --no-tcube`` with the session's cube opt-out,
    and ``--method rtree``/``quadtree`` with the R-tree and quadtree
    index joins; argparse rejects them."""

    @pytest.mark.parametrize("argv", [
        ["query", SQL, "--workers", "2"],
        ["compare", SQL, "--data", "d", "--regions", "r", "--workers", "2"],
        ["session", "--data", "d", "--regions", "r", "--workers", "2"],
        ["serve", "--workers", "2"],
        ["serve", "--prefetch-depth", "2"],
        ["store", "query", SQL, "--store", "s", "--regions", "r",
         "--shards", "2"],
        ["store", "query", SQL, "--store", "s", "--regions", "r",
         "--prefetch-depth", "2"],
        ["serve", "--speculate"],
        ["serve", "--no-speculate"],
        ["serve", "--speculate-budget-ms", "100"],
        ["serve", "--model-dir", "d"],
        ["serve", "--shards", "2"],
        ["session", "--data", "d", "--regions", "r", "--no-tcube"],
    ])
    def test_rejected(self, argv, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        flag = next(arg for arg in reversed(argv) if arg.startswith("--"))
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["query", SQL, "--method", "rtree"],
        ["session", "--data", "d", "--regions", "r", "--method", "quadtree"],
    ])
    def test_retired_method_rejected(self, argv, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert f"invalid choice: {argv[-1]!r}" in err
        assert "'grid'" in err
