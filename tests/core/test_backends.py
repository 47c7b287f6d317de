"""Tests for the backend registry and the backend adapters."""

import numpy as np
import pytest

from repro.core import (
    AggregationResult,
    Backend,
    BackendCapabilities,
    METHODS,
    SpatialAggregation,
    SpatialAggregationEngine,
    backend_names,
    get_backend,
    register_backend,
    unregister_backend,
)
from repro.errors import CubeError, QueryError
from repro.table import F, PointTable, timestamp_column

BUILTIN = ("bounded", "accurate", "tiled", "naive", "grid", "cube",
           "tcube-raster")


def _table(n=2000, seed=0):
    gen = np.random.default_rng(seed)
    return PointTable.from_arrays(
        gen.uniform(0, 100, n), gen.uniform(0, 100, n),
        fare=gen.exponential(5, n),
        payment=gen.choice(["card", "cash"], n),
        t=timestamp_column("t", gen.integers(0, 86_400 * 4, n)))


class TestRegistry:
    def test_all_builtins_registered(self):
        assert backend_names() == BUILTIN
        assert METHODS == ("auto",) + backend_names()

    def test_unknown_backend_rejected(self):
        with pytest.raises(QueryError):
            get_backend("quantum")

    def test_capabilities_sanity(self):
        assert get_backend("naive").capabilities.exact
        assert get_backend("bounded").capabilities.bounded
        assert not get_backend("bounded").capabilities.exact
        assert get_backend("tiled").capabilities.unbounded_canvas
        assert not get_backend("cube").capabilities.adhoc_regions

    def test_duplicate_name_rejected(self):
        with pytest.raises(QueryError):
            @register_backend
            class Dup(Backend):
                name = "bounded"

                def estimate_cost(self, table, regions, plan, ctx=None):
                    return 0.0

                def run(self, ctx, plan):
                    raise NotImplementedError

    def test_third_party_backend_via_decorator(self, simple_regions):
        @register_backend
        class ConstantBackend(Backend):
            name = "constant"
            capabilities = BackendCapabilities(exact=False)

            def estimate_cost(self, table, regions, plan, ctx=None):
                return 1.0

            def run(self, ctx, plan):
                return AggregationResult(
                    regions=plan.regions,
                    values=np.zeros(len(plan.regions)),
                    method="constant")

        try:
            engine = SpatialAggregationEngine(default_resolution=64)
            r = engine.execute(_table(100), simple_regions,
                               SpatialAggregation.count(),
                               method="constant")
            assert r.method == "constant"
            assert r.stats["plan"]["decision"]["chosen"] == "constant"
        finally:
            unregister_backend("constant")
        with pytest.raises(QueryError):
            get_backend("constant")


class TestCubeBackend:
    def test_cube_matches_naive(self, simple_regions):
        engine = SpatialAggregationEngine(default_resolution=64)
        table = _table(3000, seed=1)
        query = SpatialAggregation.count()
        cube = engine.execute(table, simple_regions, query, method="cube")
        naive = engine.execute(table, simple_regions, query,
                               method="naive")
        assert cube.exact
        assert cube.values == pytest.approx(naive.values)

    def test_cube_answers_materialized_filters(self, simple_regions):
        engine = SpatialAggregationEngine(default_resolution=64)
        table = _table(3000, seed=2)
        query = SpatialAggregation.sum_of("fare", F("payment") == "card")
        cube = engine.execute(table, simple_regions, query, method="cube")
        naive = engine.execute(table, simple_regions, query,
                               method="naive")
        assert cube.values == pytest.approx(naive.values)

    def test_cube_reused_from_cache(self, simple_regions):
        engine = SpatialAggregationEngine(default_resolution=64)
        table = _table(3000, seed=3)
        query = SpatialAggregation.count()
        engine.execute(table, simple_regions, query, method="cube")
        warm = engine.execute(table, simple_regions, query, method="cube")
        assert warm.stats["cache"]["query_misses"] == 0

    def test_cube_rejects_unanticipated_query(self, simple_regions):
        # MIN was never materialized — the honest pre-aggregation
        # failure mode the paper motivates Raster Join with.
        engine = SpatialAggregationEngine(default_resolution=64)
        with pytest.raises(CubeError):
            engine.execute(_table(500, seed=4), simple_regions,
                           SpatialAggregation.min_of("fare"),
                           method="cube")
