"""No fork sites: every path runs in the calling process.

``docs/raster_join.md`` §8 records why each fork was retired.  Given the
retired configuration that used to say yes to every fork decision —
which the engine now ignores — no point pass, polygon pass, tiled join
or cold pyramid frame may construct a process pool, and the answers
equal a default engine's.  Importing the package does not even load
``multiprocessing``.
"""

from __future__ import annotations

import multiprocessing.pool
import subprocess
import sys

import numpy as np
import pytest

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

#: Used to say yes to every fork decision; now ignored.
EAGER = ParallelConfig(workers=2, shards=2, serial_threshold=0, chunk_size=1)


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
    @pytest.mark.parametrize("method", ["bounded", "accurate", "grid"])
    def test_in_memory_join(self, pools, table, simple_regions, method):
        query = SpatialAggregation.sum_of("fare")
        got = _engine(EAGER).execute(table, simple_regions, query,
                                     method=method)
        assert pools == []
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


class TestTiledAndPyramidNeverFork:
    @pytest.mark.parametrize("source", ["memory", "store"])
    def test_tiled_join(self, pools, table, store, simple_regions, source):
        points = table if source == "memory" else store
        query = SpatialAggregation.sum_of("fare")
        got = _engine(EAGER).execute(points, simple_regions, query,
                                     method="tiled", resolution=2_048)
        assert pools == []
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
        assert got.stats["pyramid"]["scattered"] > 0
        assert pools == []
        _assert_same(got, _engine(ParallelConfig(workers=1)).execute(
            store, simple_regions, query, viewport=viewport))


def test_import_allocates_no_shared_memory_machinery():
    """Importing the package loads no ``multiprocessing`` module at all
    — no pool, no shared memory, no resource tracker."""
    code = ("import sys, repro, repro.core, repro.store, repro.serve, "
            "repro.urbane, repro.cli; "
            "sys.exit(sorted(m for m in sys.modules "
            "if m.split('.')[0] == 'multiprocessing') or None)")
    run = subprocess.run([sys.executable, "-c", code],
                         capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
