"""The retired parallel configuration is inert.

``ParallelConfig``, ``parallel_bounded_raster_join`` and the engine's
``parallel=`` / ``workers=`` keywords survive only because the frozen
benchmark still passes them (ROADMAP item 5).  An engine given the
config that used to fork everything answers with the serial joins'
bits, and the alias *is* the serial bounded join.
``tests/core/test_fork_sites.py`` checks that no pool is ever made.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines.grid_join import grid_index_join
from repro.core import (
    AVG,
    COUNT,
    MAX,
    MIN,
    SUM,
    ParallelConfig,
    SpatialAggregation,
    SpatialAggregationEngine,
    accurate_raster_join,
    bounded_raster_join,
    parallel_bounded_raster_join,
    tiled_bounded_raster_join,
)
from repro.raster import Viewport, build_fragment_table
from repro.table import F, PointTable

AGGREGATES = (COUNT, SUM, AVG, MIN, MAX)

#: Used to force every fork decision even on tiny inputs; now ignored.
SMALL_CHUNKS = ParallelConfig(workers=3, chunk_size=400,
                              serial_threshold=100)


def _table(n: int, seed: int = 3) -> PointTable:
    gen = np.random.default_rng(seed)
    # Integer-valued fares: float sums are then exact regardless of the
    # order chunks merge in, so SUM can be asserted bitwise.
    return PointTable.from_arrays(
        gen.uniform(0, 100, n), gen.uniform(0, 100, n),
        fare=np.floor(gen.exponential(10.0, n)))


def _query(agg: str, filtered: bool) -> SpatialAggregation:
    if agg == COUNT:
        query = SpatialAggregation.count()
    else:
        ctor = {SUM: SpatialAggregation.sum_of,
                AVG: SpatialAggregation.avg_of,
                MIN: SpatialAggregation.min_of,
                MAX: SpatialAggregation.max_of}[agg]
        query = ctor("fare")
    if filtered:
        query = query.where(F("fare") > 5)
    return query


def _assert_equivalent(agg: str, serial: np.ndarray,
                       parallel: np.ndarray) -> None:
    if agg in (COUNT, SUM):
        np.testing.assert_array_equal(parallel, serial)
    else:
        np.testing.assert_allclose(parallel, serial, rtol=1e-12,
                                   equal_nan=True)


@pytest.fixture(scope="module")
def table() -> PointTable:
    return _table(4_000)


@pytest.fixture(scope="module")
def viewport(simple_regions) -> Viewport:
    return Viewport.fit(simple_regions.bbox, 256)


@pytest.fixture(scope="module")
def fragments(simple_regions, viewport):
    return build_fragment_table(list(simple_regions.geometries), viewport)


class TestBoundedEquivalence:
    """The deprecated alias ignores its config and is the serial join."""

    @pytest.mark.parametrize("agg", AGGREGATES)
    @pytest.mark.parametrize("filtered", [False, True])
    def test_matches_serial(self, agg, filtered, table, simple_regions,
                            viewport, fragments):
        query = _query(agg, filtered)
        serial = bounded_raster_join(table, simple_regions, query, viewport,
                                     fragments=fragments)
        parallel = parallel_bounded_raster_join(
            table, simple_regions, query, viewport, fragments=fragments,
            config=SMALL_CHUNKS)
        _assert_equivalent(agg, serial.values, parallel.values)
        if serial.has_bounds:
            np.testing.assert_array_equal(parallel.lower, serial.lower)
            np.testing.assert_array_equal(parallel.upper, serial.upper)
        assert parallel.method == serial.method

    def test_single_worker_runs_in_process(self, table, simple_regions,
                                           viewport, fragments):
        config = ParallelConfig(workers=1, chunk_size=400)
        serial = bounded_raster_join(table, simple_regions,
                                     SpatialAggregation.count(), viewport,
                                     fragments=fragments)
        parallel = parallel_bounded_raster_join(
            table, simple_regions, SpatialAggregation.count(), viewport,
            fragments=fragments, config=config)
        np.testing.assert_array_equal(parallel.values, serial.values)

    def test_empty_table(self, simple_regions, viewport, fragments):
        empty = _table(0)
        result = parallel_bounded_raster_join(
            empty, simple_regions, SpatialAggregation.count(), viewport,
            fragments=fragments, config=SMALL_CHUNKS)
        np.testing.assert_array_equal(result.values,
                                      np.zeros(len(simple_regions)))

    def test_empty_chunk(self, simple_regions, viewport, fragments):
        # A filter that empties some chunks entirely: all matching rows
        # live in the first fifth of the table, the rest scatter nothing.
        gen = np.random.default_rng(11)
        n = 2_000
        x = np.concatenate([gen.uniform(0, 100, n // 5),
                            np.full(n - n // 5, 50.0)])
        y = np.concatenate([gen.uniform(0, 100, n // 5),
                            np.full(n - n // 5, 50.0)])
        fare = np.concatenate([np.full(n // 5, 7.0),
                               np.zeros(n - n // 5)])
        table = PointTable.from_arrays(x, y, fare=fare)
        query = SpatialAggregation.count(F("fare") > 5)
        serial = bounded_raster_join(table, simple_regions, query, viewport,
                                     fragments=fragments)
        parallel = parallel_bounded_raster_join(
            table, simple_regions, query, viewport, fragments=fragments,
            config=SMALL_CHUNKS)
        np.testing.assert_array_equal(parallel.values, serial.values)


def _eager_engine() -> SpatialAggregationEngine:
    return SpatialAggregationEngine(default_resolution=256,
                                    parallel=SMALL_CHUNKS)


class TestAccurateEquivalence:
    """Under a config that says yes to every fork decision, the accurate
    backend still answers with the serial join's bits."""

    @pytest.mark.parametrize("agg", AGGREGATES)
    @pytest.mark.parametrize("filtered", [False, True])
    def test_matches_serial(self, agg, filtered, table, simple_regions,
                            viewport, fragments):
        query = _query(agg, filtered)
        serial = accurate_raster_join(table, simple_regions, query,
                                      viewport, fragments=fragments)
        got = _eager_engine().execute(table, simple_regions, query,
                                      method="accurate", viewport=viewport)
        np.testing.assert_array_equal(got.values, serial.values)
        assert got.exact
        assert (got.stats["boundary_points_tested"]
                == serial.stats["boundary_points_tested"])


class TestIndexJoinEquivalence:
    """Likewise the grid index join."""

    @pytest.mark.parametrize("agg", AGGREGATES)
    def test_matches_serial(self, agg, table, simple_regions):
        query = _query(agg, filtered=True)
        engine = _eager_engine()
        serial = grid_index_join(table, simple_regions, query,
                                 index=engine.ctx.grid_index(table))
        got = engine.execute(table, simple_regions, query, method="grid")
        np.testing.assert_array_equal(got.values, serial.values)
        assert got.method == serial.method
        assert (got.stats["candidates_tested"]
                == serial.stats["candidates_tested"])


class TestTiledEquivalence:
    @pytest.mark.parametrize("agg", AGGREGATES)
    def test_matches_serial(self, agg, table, simple_regions):
        """The tiled join forked its tile ranges under this config; the
        engine now runs the one serial tile loop — the same bits."""
        query = _query(agg, filtered=False)
        serial = tiled_bounded_raster_join(table, simple_regions, query,
                                           resolution=2_048)
        got = SpatialAggregationEngine(parallel=SMALL_CHUNKS).execute(
            table, simple_regions, query, method="tiled", resolution=2_048)
        assert got.stats["tiles"] == 4
        assert got.method == serial.method
        _assert_equivalent(agg, serial.values, got.values)


class TestEngineIntegration:
    def test_engine_parallel_run_matches_serial(self, simple_regions):
        """A config that used to fork the point pass is ignored — same
        bits as a one-worker engine."""
        table = _table(6_000)
        parallel_engine = SpatialAggregationEngine(
            default_resolution=128,
            parallel=ParallelConfig(workers=2, chunk_size=500,
                                    serial_threshold=1_000))
        serial_engine = SpatialAggregationEngine(default_resolution=128,
                                                 workers=1)
        query = SpatialAggregation.sum_of("fare")
        rp = parallel_engine.execute(table, simple_regions, query,
                                     method="bounded")
        rs = serial_engine.execute(table, simple_regions, query,
                                   method="bounded")
        np.testing.assert_array_equal(rp.values, rs.values)

    def test_retired_config_is_ignored(self, table, simple_regions):
        """The config that used to fork every site, plus ``workers=8``,
        answers exactly like a default engine on every raster path."""
        retired = SpatialAggregationEngine(
            default_resolution=256,
            parallel=ParallelConfig(workers=8, shards=8, serial_threshold=0),
            workers=8)
        default = SpatialAggregationEngine(default_resolution=256)
        grid = default.plan_grid_viewport(simple_regions, 256)
        query = _query(SUM, filtered=True)
        for kwargs in ({"method": "bounded"}, {"method": "accurate"},
                       {"method": "tiled", "resolution": 2_048},
                       {"method": "bounded", "viewport": grid}):
            got = retired.execute(table, simple_regions, query, **kwargs)
            want = default.execute(table, simple_regions, query, **kwargs)
            assert got.method == want.method
            for name in ("values", "lower", "upper"):
                a, b = getattr(got, name), getattr(want, name)
                assert (a is None and b is None) or np.array_equal(a, b)
