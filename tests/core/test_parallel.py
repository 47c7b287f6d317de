"""Fork/serial equivalence for what still forks, and the serial rule.

Point passes run serial: a multi-worker config must leave the bounded
join (and its deprecated ``parallel_bounded_raster_join`` alias), the
accurate join and the grid index join the serial code.  The one
in-memory fork site — the tiled join's tile ranges — must be a drop-in
replacement: bitwise-equal for COUNT and SUM (the test data uses
integer-valued measures, so float addition is exact in any merge
order), tolerance-equal for AVG/MIN/MAX.
``tests/core/test_fork_sites.py`` counts the pools.
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
from repro.core.parallel import ParallelConfig as PC
from repro.raster import Viewport, build_fragment_table
from repro.table import F, PointTable

AGGREGATES = (COUNT, SUM, AVG, MIN, MAX)

#: Forces every surviving fork decision even on tiny test inputs.
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
        assert got.stats["parallel"]["mode"] == "serial"
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
        assert got.stats["parallel"]["mode"] == "serial"
        assert (got.stats["candidates_tested"]
                == serial.stats["candidates_tested"])


class TestTiledEquivalence:
    @pytest.mark.parametrize("agg", AGGREGATES)
    def test_matches_serial(self, agg, table, simple_regions):
        query = _query(agg, filtered=False)
        serial = tiled_bounded_raster_join(table, simple_regions, query,
                                           resolution=512, tile_pixels=128)
        parallel = tiled_bounded_raster_join(table, simple_regions, query,
                                             resolution=512, tile_pixels=128,
                                             config=SMALL_CHUNKS)
        _assert_equivalent(agg, serial.values, parallel.values)
        if serial.has_bounds:
            np.testing.assert_allclose(parallel.lower, serial.lower,
                                       rtol=1e-12)
            np.testing.assert_allclose(parallel.upper, serial.upper,
                                       rtol=1e-12)


class TestFragmentStitching:
    def test_covered_arrays_precomputed(self, fragments):
        # Satellite: the concatenated covered arrays are materialized at
        # build time, not re-concatenated per query.
        assert "covered_pixels" in fragments.__dict__
        assert fragments.covered_pixels is fragments.covered_pixels


class TestConfigDecisions:
    def test_below_threshold_is_serial(self):
        config = PC(workers=4, serial_threshold=1_000)
        decision = config.decide(999)
        assert not decision["use"]
        assert "below serial threshold" in decision["reason"]

    def test_above_threshold_is_parallel(self):
        config = PC(workers=4, chunk_size=100, serial_threshold=1_000)
        decision = config.decide(1_000)
        assert decision["use"]
        assert decision["workers"] == 4

    def test_one_worker_never_parallel(self):
        config = PC(workers=1, serial_threshold=10)
        assert not config.decide(10_000_000)["use"]


class TestEngineIntegration:
    def test_workers_kwarg_threads_through(self, simple_regions):
        engine = SpatialAggregationEngine(default_resolution=128, workers=2)
        assert engine.ctx.parallel.resolve_workers() == 2
        result = engine.execute(_table(500), simple_regions,
                                SpatialAggregation.count(),
                                method="bounded")
        assert result.stats["parallel"]["mode"] == "serial"
        assert result.stats["plan"]["parallel"]["use"] is False

    def test_engine_parallel_run_matches_serial(self, simple_regions):
        """A config that used to fork the point pass now runs it
        serial — same bits, and the stats say so."""
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
        assert rp.stats["parallel"]["mode"] == "serial"
        assert rp.stats["plan"]["parallel"]["use"] is False
