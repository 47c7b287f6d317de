"""Tests for shared-pass multi-aggregate execution."""

import numpy as np
import pytest

from repro.core import (
    SpatialAggregation,
    bounded_raster_join,
    bounded_raster_join_multi,
)
from repro.raster import Viewport
from repro.table import F, PointTable, timestamp_column


def _table(n=20_000, seed=0):
    gen = np.random.default_rng(seed)
    return PointTable.from_arrays(
        gen.uniform(0, 100, n), gen.uniform(0, 100, n),
        fare=gen.exponential(10, n),
        tip=gen.exponential(2, n),
        t=timestamp_column("t", gen.integers(0, 1000, n)),
        kind=gen.choice(["a", "b"], n))


QUERIES = [
    SpatialAggregation.count(),
    SpatialAggregation.sum_of("fare"),
    SpatialAggregation.avg_of("fare"),
    SpatialAggregation.avg_of("tip"),
    SpatialAggregation.min_of("fare"),
    SpatialAggregation.max_of("tip"),
]


class TestEquivalence:
    def test_matches_individual_runs(self, simple_regions):
        table = _table()
        vp = Viewport.fit(simple_regions.bbox, 128)
        multi = bounded_raster_join_multi(table, simple_regions, QUERIES, vp)
        assert len(multi) == len(QUERIES)
        for query, got in zip(QUERIES, multi):
            want = bounded_raster_join(table, simple_regions, query, vp)
            both_nan = np.isnan(got.values) & np.isnan(want.values)
            assert (both_nan | np.isclose(got.values, want.values)).all()
            if want.has_bounds:
                assert got.has_bounds
                assert got.lower == pytest.approx(want.lower)
                assert got.upper == pytest.approx(want.upper)

    def test_mixed_filters_grouped_correctly(self, simple_regions):
        table = _table(seed=1)
        vp = Viewport.fit(simple_regions.bbox, 96)
        queries = [
            SpatialAggregation.count(F("kind") == "a"),
            SpatialAggregation.sum_of("fare", F("kind") == "a"),
            SpatialAggregation.count(F("kind") == "b"),
            SpatialAggregation.count(),
        ]
        multi = bounded_raster_join_multi(table, simple_regions, queries, vp)
        for query, got in zip(queries, multi):
            want = bounded_raster_join(table, simple_regions, query, vp)
            assert got.values == pytest.approx(want.values)
        # Grouping: the two kind=='a' queries share a pass.
        assert multi[0].stats["shared_group_size"] == 2
        assert multi[2].stats["shared_group_size"] == 1

    def test_results_aligned_with_queries(self, simple_regions):
        table = _table(seed=2)
        vp = Viewport.fit(simple_regions.bbox, 64)
        queries = [SpatialAggregation.count(F("kind") == "b"),
                   SpatialAggregation.count()]
        multi = bounded_raster_join_multi(table, simple_regions, queries, vp)
        # Filtered count must be <= unfiltered count everywhere.
        assert (multi[0].values <= multi[1].values + 1e-9).all()

    def test_engine_entry_point(self, simple_regions, engine):
        table = _table(seed=3)
        results = engine.execute_multi(table, simple_regions, QUERIES,
                                       resolution=128)
        single = engine.execute(table, simple_regions, QUERIES[0],
                                method="bounded", resolution=128)
        assert results[0].values == pytest.approx(single.values)
        assert results[0].stats["queries_in_pass"] == len(QUERIES)


class TestSharingIsFaster:
    def test_shared_pass_beats_separate_passes(self, simple_regions):
        """Six aggregates over one filter signature should run meaningfully
        faster shared than separately (shared mask + projection)."""
        import time

        table = _table(200_000, seed=4)
        vp = Viewport.fit(simple_regions.bbox, 256)
        from repro.raster import build_fragment_table

        fragments = build_fragment_table(list(simple_regions.geometries), vp)

        def run_separate():
            for query in QUERIES:
                bounded_raster_join(table, simple_regions, query, vp,
                                    fragments=fragments)

        def run_shared():
            bounded_raster_join_multi(table, simple_regions, QUERIES, vp,
                                      fragments=fragments)

        run_separate(), run_shared()  # warm
        t0 = time.perf_counter()
        run_separate()
        t_sep = time.perf_counter() - t0
        t0 = time.perf_counter()
        run_shared()
        t_shared = time.perf_counter() - t0
        assert t_shared < t_sep
