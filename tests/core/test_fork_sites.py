"""Where a process pool may be forked — and where it never is.

One rule (``docs/raster_join.md`` §8): point passes and the polygon
pass of one viewport run serial; a fork survives only around per-tile /
per-block rasterization.  With a config that says yes to every
remaining decision, the serial paths must construct zero pools and the
three ``_fork_map`` sites at least one each, with answers equal to a
one-worker engine.
"""

from __future__ import annotations

import multiprocessing.pool
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.core import (
    ParallelConfig,
    RegionSet,
    SpatialAggregation,
    SpatialAggregationEngine,
)
from repro.geometry import Polygon
from repro.raster import Viewport
from repro.store import build_store
from repro.table import TimeRange

from tests.store.conftest import HOUR, make_store_table

#: Says yes to every fork decision that still exists.
EAGER = ParallelConfig(workers=2, shards=2, serial_threshold=0, chunk_size=1)

pytestmark = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="no fork start method: every site runs in-process")


def _engine(parallel: ParallelConfig) -> SpatialAggregationEngine:
    return SpatialAggregationEngine(default_resolution=256, parallel=parallel)


@pytest.fixture
def pools(monkeypatch) -> list:
    """Every ``multiprocessing.pool.Pool`` constructed during the test."""
    made = []
    init = multiprocessing.pool.Pool.__init__

    def counting_init(self, *args, **kwargs):
        made.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(multiprocessing.pool.Pool, "__init__", counting_init)
    return made


@pytest.fixture(scope="module")
def table():
    return make_store_table(20_000, seed=5)


@pytest.fixture(scope="module")
def store(table, tmp_path_factory):
    path = tmp_path_factory.mktemp("fork-sites") / "pts"
    return build_store(table, path, partition_rows=1_024, grid=4,
                       time_column="t", time_bucket_seconds=2 * HOUR)


def _assert_same(got, want) -> None:
    for name in ("values", "lower", "upper"):
        a, b = getattr(got, name), getattr(want, name)
        if a is None or b is None:
            assert a is None and b is None, name
        else:
            np.testing.assert_allclose(a, b, rtol=0, atol=1e-12,
                                       equal_nan=True, err_msg=name)


class TestPointPassesNeverFork:
    @pytest.mark.parametrize("method", ["bounded", "accurate", "grid",
                                        "rtree"])
    def test_in_memory_join(self, pools, table, simple_regions, method):
        query = SpatialAggregation.sum_of("fare")
        got = _engine(EAGER).execute(table, simple_regions, query,
                                     method=method)
        assert pools == []
        assert got.stats["parallel"]["mode"] == "serial"
        _assert_same(got, _engine(ParallelConfig(workers=1)).execute(
            table, simple_regions, query, method=method))

    def test_tcube_build_and_brush(self, pools, table, simple_regions):
        query = SpatialAggregation("count", None,
                                   (TimeRange("t", 0, 2 * HOUR),))
        got = _engine(EAGER).execute(table, simple_regions, query,
                                     method="tcube-raster")
        assert got.stats["tcube"]["built"]
        assert pools == []

    def test_store_bounded_scan(self, pools, store, table, simple_regions):
        query = SpatialAggregation.sum_of("fare")
        got = _engine(EAGER).execute(store, simple_regions, query)
        assert got.method == "store-bounded-raster-join"
        assert pools == []
        _assert_same(got, _engine(EAGER).execute(
            table, simple_regions, query, method="bounded"))


class TestFragmentBuildNeverForks:
    def test_256_region_fragment_build(self, pools):
        side = 16  # 16 x 16 squares: the old builder forked from 256 up
        step = 100.0 / side
        squares = [Polygon([[i * step, j * step], [(i + 1) * step, j * step],
                            [(i + 1) * step, (j + 1) * step],
                            [i * step, (j + 1) * step]])
                   for j in range(side) for i in range(side)]
        regions = RegionSet("squares", squares,
                            [f"r{i}" for i in range(len(squares))])
        viewport = Viewport.fit(regions.bbox, 128)
        got = _engine(EAGER).fragments_for(regions, viewport)
        assert pools == []
        assert got.num_polygons == len(squares) >= 256


class TestPolygonRasterizationForks:
    @pytest.mark.parametrize("source", ["memory", "store"])
    def test_tiled_join(self, pools, table, store, simple_regions, source):
        points = table if source == "memory" else store
        query = SpatialAggregation.sum_of("fare")
        got = _engine(EAGER).execute(points, simple_regions, query,
                                     method="tiled", resolution=2_048)
        assert len(pools) >= 1
        assert got.stats["parallel"]["mode"] == "parallel"
        assert got.stats["parallel"]["pooled"]
        _assert_same(got, _engine(ParallelConfig(workers=1)).execute(
            points, simple_regions, query, method="tiled",
            resolution=2_048))

    def test_cold_grid_viewport_store_query(self, pools, store,
                                            simple_regions):
        query = SpatialAggregation.sum_of("fare")
        engine = _engine(EAGER)
        viewport = engine.plan_grid_viewport(simple_regions, 256)
        got = engine.execute(store, simple_regions, query, viewport=viewport)
        assert got.method == "store-pyramid-raster-join"
        assert len(pools) >= 1
        assert got.stats["shards"]["blocks_prescattered"] > 0
        _assert_same(got, _engine(ParallelConfig(workers=1)).execute(
            store, simple_regions, query, viewport=viewport))


def test_import_allocates_no_shared_memory_machinery():
    code = ("import sys, repro, repro.core, repro.store, repro.shard, "
            "repro.serve, repro.cli; "
            "sys.exit('multiprocessing.shared_memory' in sys.modules)")
    assert subprocess.run([sys.executable, "-c", code]).returncode == 0


def test_fork_map_has_exactly_three_call_sites():
    calls = sorted(
        path.name
        for path in Path(repro.__file__).parent.rglob("*.py")
        for line in path.read_text().splitlines()
        if "_fork_map(" in line and not line.startswith("def "))
    assert calls == ["coordinator.py", "coordinator.py", "tiling.py"]
