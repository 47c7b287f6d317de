"""Tests for the engine: planning, caching, method dispatch."""

import numpy as np
import pytest

from repro.core import (
    SpatialAggregation,
    SpatialAggregationEngine,
    backend_names,
)
from repro.errors import QueryError
from repro.raster import Viewport
from repro.table import F, PointTable


def _table(n=10_000, seed=0):
    gen = np.random.default_rng(seed)
    return PointTable.from_arrays(
        gen.uniform(0, 100, n), gen.uniform(0, 100, n),
        fare=gen.exponential(5, n))


class TestDispatch:
    def test_all_methods_run(self, simple_regions, engine):
        table = _table()
        query = SpatialAggregation.count()
        results = {}
        for method in ("bounded", "accurate", "tiled", "grid", "naive",
                       "cube"):
            results[method] = engine.execute(table, simple_regions, query,
                                             method=method)
        exact = results["naive"].values
        for method in ("accurate", "grid", "cube"):
            assert results[method].values == pytest.approx(exact)
        for method in ("bounded", "tiled"):
            assert results[method].bounds_contain(results["naive"])

    def test_auto_routes_on_exactness(self, simple_regions, engine,
                                      small_table):
        # Large enough that the raster family beats the index joins.
        query = SpatialAggregation.count()
        approx = engine.execute(small_table, simple_regions, query)
        exact = engine.execute(small_table, simple_regions, query,
                               exact=True)
        assert approx.method == "bounded-raster-join"
        assert exact.method == "accurate-raster-join"
        assert approx.stats["plan"]["decision"]["chosen"] == "bounded"
        assert exact.stats["plan"]["decision"]["chosen"] == "accurate"

    def test_unknown_method_rejected(self, simple_regions, engine):
        # ``rtree`` and ``quadtree`` are retired index joins: they fail
        # like any other unknown name, listing what is registered.
        for method in ("quantum", "rtree", "quadtree"):
            with pytest.raises(QueryError, match=method) as info:
                engine.execute(_table(100), simple_regions,
                               SpatialAggregation.count(), method=method)
            for name in backend_names():
                assert repr(name) in str(info.value), (method, name)

    def test_execute_time_recorded(self, simple_regions, engine):
        r = engine.execute(_table(100, seed=2), simple_regions,
                           SpatialAggregation.count())
        assert r.stats["time_execute_s"] > 0

    def test_every_result_carries_plan_and_cache_stats(
            self, simple_regions, engine):
        table = _table(500, seed=7)
        for method in ("auto", "bounded", "naive"):
            r = engine.execute(table, simple_regions,
                               SpatialAggregation.count(), method=method)
            assert "chosen" in r.stats["plan"]["decision"]
            assert r.stats["plan"]["decision"]["planned"] == (method == "auto")
            assert {"hits", "misses", "evictions"} <= set(r.stats["cache"])

    def test_execute_multi_carries_stats(self, simple_regions, engine):
        table = _table(500, seed=8)
        queries = [SpatialAggregation.count(),
                   SpatialAggregation.sum_of("fare")]
        results = engine.execute_multi(table, simple_regions, queries)
        for r in results:
            assert r.stats["plan"]["decision"]["chosen"] == "bounded"
            assert "hits" in r.stats["cache"]


class TestPlanning:
    def test_epsilon_drives_resolution(self, simple_regions, engine):
        vp_loose = engine.plan_viewport(simple_regions, None, epsilon=10.0)
        vp_tight = engine.plan_viewport(simple_regions, None, epsilon=1.0)
        assert vp_tight.num_pixels > vp_loose.num_pixels
        assert vp_tight.pixel_diag <= 1.0

    def test_resolution_cap_enforced(self, simple_regions, engine):
        with pytest.raises(QueryError):
            engine.plan_viewport(simple_regions, 100_000, None)

    def test_default_resolution_used(self, simple_regions):
        engine = SpatialAggregationEngine(default_resolution=128)
        vp = engine.plan_viewport(simple_regions, None, None)
        assert max(vp.width, vp.height) == 128

    def test_explicit_viewport_respected(self, simple_regions, engine):
        vp = Viewport.fit(simple_regions.bbox, 77)
        r = engine.execute(_table(500, seed=3), simple_regions,
                           SpatialAggregation.count(), viewport=vp)
        assert r.stats["canvas_pixels"] == vp.num_pixels

    def test_invalid_default_resolution(self):
        with pytest.raises(QueryError):
            SpatialAggregationEngine(default_resolution=0)


class TestCaching:
    def test_fragment_cache_reused(self, simple_regions, engine):
        vp = Viewport.fit(simple_regions.bbox, 64)
        f1 = engine.fragments_for(simple_regions, vp)
        f2 = engine.fragments_for(simple_regions, vp)
        assert f1 is f2

    def test_fragment_cache_distinct_viewports(self, simple_regions, engine):
        f1 = engine.fragments_for(simple_regions,
                                  Viewport.fit(simple_regions.bbox, 64))
        f2 = engine.fragments_for(simple_regions,
                                  Viewport.fit(simple_regions.bbox, 128))
        assert f1 is not f2

    def test_clear_caches(self, simple_regions, engine):
        vp = Viewport.fit(simple_regions.bbox, 64)
        f1 = engine.fragments_for(simple_regions, vp)
        engine.clear_caches()
        assert engine.fragments_for(simple_regions, vp) is not f1

    def test_cached_run_matches_cold_run(self, simple_regions, engine):
        table = _table(2000, seed=4)
        query = SpatialAggregation.count(F("fare") > 2)
        cold = engine.execute(table, simple_regions, query,
                              method="bounded")
        warm = engine.execute(table, simple_regions, query,
                              method="bounded")
        assert (cold.values == warm.values).all()


class TestCompare:
    def test_compare_helper(self, simple_regions, engine):
        table = _table(2000, seed=5)
        out = engine.compare(table, simple_regions,
                             SpatialAggregation.count(),
                             methods=("bounded", "naive"))
        assert set(out) == {"bounded", "naive"}
        assert out["bounded"].bounds_contain(out["naive"])

    def test_compare_threads_epsilon(self, simple_regions, engine):
        # epsilon must reach each backend: the bounded run's canvas is
        # sized by it, exactly as engine.execute would size it.
        table = _table(2000, seed=6)
        out = engine.compare(table, simple_regions,
                             SpatialAggregation.count(),
                             methods=("bounded",), epsilon=5.0)
        # cache=False: a recompute, not the stored answer compare made.
        direct = engine.execute(table, simple_regions,
                                SpatialAggregation.count(),
                                method="bounded", epsilon=5.0, cache=False)
        assert (out["bounded"].stats["canvas_pixels"]
                == direct.stats["canvas_pixels"])
        assert out["bounded"].stats["epsilon_world_units"] <= 5.0

    def test_compare_threads_exact_and_viewport(self, simple_regions,
                                                engine):
        table = _table(2000, seed=7)
        vp = Viewport.fit(simple_regions.bbox, 96)
        out = engine.compare(table, simple_regions,
                             SpatialAggregation.count(),
                             methods=("auto", "bounded"), exact=True,
                             viewport=vp)
        assert out["auto"].exact
        assert out["bounded"].stats["canvas_pixels"] == vp.num_pixels
