"""Tests for the cost-based planner behind ``method="auto"``."""

import numpy as np
import pytest

from repro.core import (
    SpatialAggregation,
    SpatialAggregationEngine,
)
from repro.table import PointTable


def _table(n, seed=0):
    gen = np.random.default_rng(seed)
    return PointTable.from_arrays(
        gen.uniform(0, 100, n), gen.uniform(0, 100, n),
        fare=gen.exponential(5, n))


@pytest.fixture()
def engine():
    return SpatialAggregationEngine(default_resolution=256)


class TestBackendChoice:
    def test_tiny_table_avoids_raster(self, simple_regions, engine):
        r = engine.execute(_table(200), simple_regions,
                           SpatialAggregation.count())
        assert r.stats["plan"]["decision"]["chosen"] in ("naive", "grid")

    def test_large_table_coarse_epsilon_goes_bounded(self, simple_regions,
                                                     engine, small_table):
        r = engine.execute(small_table, simple_regions,
                           SpatialAggregation.count(), epsilon=5.0)
        assert r.stats["plan"]["decision"]["chosen"] == "bounded"
        assert r.has_bounds

    def test_exact_request_goes_accurate(self, simple_regions, engine,
                                         small_table):
        r = engine.execute(small_table, simple_regions,
                           SpatialAggregation.count(), exact=True)
        assert r.stats["plan"]["decision"]["chosen"] == "accurate"
        assert r.exact

    def test_resolution_above_cap_goes_tiled(self, simple_regions,
                                             small_table):
        engine = SpatialAggregationEngine(default_resolution=256,
                                          max_canvas_resolution=512)
        r = engine.execute(small_table, simple_regions,
                           SpatialAggregation.count(), resolution=2048)
        assert r.stats["plan"]["decision"]["chosen"] == "tiled"
        assert r.stats["resolution"] == 2048

    def test_tight_epsilon_goes_tiled(self, simple_regions, small_table):
        engine = SpatialAggregationEngine(default_resolution=256,
                                          max_canvas_resolution=256)
        r = engine.execute(small_table, simple_regions,
                           SpatialAggregation.count(), epsilon=0.05)
        assert r.stats["plan"]["decision"]["chosen"] == "tiled"

    def test_exact_never_picks_approximate(self, simple_regions, engine):
        for n in (100, 5_000):
            r = engine.execute(_table(n, seed=n), simple_regions,
                               SpatialAggregation.count(), exact=True)
            assert r.exact, r.stats["plan"]

    def test_cached_cube_is_picked_up(self, simple_regions, engine):
        table = _table(5_000, seed=3)
        query = SpatialAggregation.count()
        engine.execute(table, simple_regions, query, method="cube")
        r = engine.execute(table, simple_regions, query)
        assert r.stats["plan"]["decision"]["chosen"] == "cube"
        assert r.stats["plan"]["inputs"]["cube_cached"]

    def test_no_cube_for_adhoc_regions(self, simple_regions, city_regions,
                                       engine):
        # A cube exists for simple_regions, but a never-seen region set
        # must not route to the cube backend.
        table = _table(5_000, seed=4)
        query = SpatialAggregation.count()
        engine.execute(table, simple_regions, query, method="cube")
        r = engine.execute(table, city_regions, query)
        assert r.stats["plan"]["decision"]["chosen"] != "cube"


class TestPlanRecording:
    def test_decision_records_inputs_and_costs(self, simple_regions,
                                               engine):
        r = engine.execute(_table(1_000, seed=5), simple_regions,
                           SpatialAggregation.count())
        plan = r.stats["plan"]
        assert set(plan) == {"inputs", "decision", "degraded", "kernel"}
        assert plan["kernel"]["selected"] in ("numpy", "numba")
        assert plan["kernel"]["requested"] == "auto"
        decision = plan["decision"]
        assert decision["planned"] is True
        assert decision["chosen"] in decision["costs"]
        inputs = plan["inputs"]
        assert inputs["n_points"] == 1_000
        assert inputs["n_regions"] == len(simple_regions)
        assert inputs["total_vertices"] == simple_regions.total_vertices
        assert inputs["exact"] is False
        # No deadline was requested, so no degradation record.
        assert plan["degraded"] is None
        # The chosen backend priced cheapest among the candidates.
        costs = decision["costs"]
        assert costs[decision["chosen"]] == min(costs.values())

    def test_explicit_method_recorded_as_unplanned(self, simple_regions,
                                                   engine):
        r = engine.execute(_table(500, seed=6), simple_regions,
                           SpatialAggregation.count(), method="naive")
        assert r.stats["plan"]["decision"]["chosen"] == "naive"
        assert r.stats["plan"]["decision"]["planned"] is False

    def test_cache_state_feeds_the_planner(self, simple_regions, engine):
        # Once the grid index for this table is cached, its build cost
        # is waived and the recorded inputs say so.
        table = _table(2_000, seed=7)
        query = SpatialAggregation.count()
        engine.execute(table, simple_regions, query, method="grid")
        r = engine.execute(table, simple_regions, query)
        assert "grid" in r.stats["plan"]["inputs"]["indexes_cached"]


class TestDeadlineDegradation:
    def test_tight_deadline_degrades_exact_to_bounded(self, simple_regions,
                                                      engine):
        r = engine.execute(_table(20_000, seed=20), simple_regions,
                           SpatialAggregation.count(), exact=True,
                           deadline_ms=1e-4)
        degraded = r.stats["plan"]["degraded"]
        assert degraded is not None and degraded["applied"] is True
        assert degraded["steps"][0]["step"] == "exact->bounded"
        assert r.stats["plan"]["decision"]["chosen"] != "accurate"
        assert not r.exact

    def test_tight_deadline_coarsens_canvas(self, simple_regions, engine):
        r = engine.execute(_table(20_000, seed=21), simple_regions,
                           SpatialAggregation.count(), resolution=512,
                           deadline_ms=1e-4)
        degraded = r.stats["plan"]["degraded"]
        assert degraded["applied"] is True
        coarser = [s for s in degraded["steps"]
                   if s["step"] == "coarser-canvas"]
        assert coarser
        from repro.core.planner import MIN_DEGRADED_RESOLUTION
        assert coarser[-1]["resolution"] >= MIN_DEGRADED_RESOLUTION
        assert r.stats["canvas_pixels"] < 512 * 512

    def test_generous_deadline_leaves_plan_alone(self, simple_regions,
                                                 engine):
        r = engine.execute(_table(1_000, seed=22), simple_regions,
                           SpatialAggregation.count(), exact=True,
                           deadline_ms=60_000.0)
        degraded = r.stats["plan"]["degraded"]
        assert degraded["applied"] is False
        assert degraded["within_deadline"] is True
        assert r.exact

    def test_no_deadline_records_none(self, simple_regions, engine):
        r = engine.execute(_table(500, seed=23), simple_regions,
                           SpatialAggregation.count())
        assert r.stats["plan"]["degraded"] is None
        assert r.stats["plan"]["inputs"]["deadline_ms"] is None

    def test_explicit_viewport_never_degraded(self, simple_regions, engine):
        from repro.raster import Viewport

        vp = Viewport.fit(simple_regions.bbox, 512)
        r = engine.execute(_table(20_000, seed=24), simple_regions,
                           SpatialAggregation.count(), viewport=vp,
                           deadline_ms=1e-4)
        assert r.stats["canvas_pixels"] == vp.num_pixels

    def test_explicit_method_skips_degradation(self, simple_regions, engine):
        r = engine.execute(_table(5_000, seed=25), simple_regions,
                           SpatialAggregation.count(), method="bounded",
                           deadline_ms=1e-4)
        assert r.stats["plan"]["degraded"] is None

    def test_observe_calibrates_throughput(self):
        from repro.core.planner import CostBasedPlanner

        p = CostBasedPlanner(units_per_second=1e6)
        before = p.predict_ms(1e6)
        assert before == pytest.approx(1000.0)
        for _ in range(50):
            p.observe(1e6, 0.1)  # machine is 10x faster than assumed
        after = p.predict_ms(1e6)
        assert after < before / 2

    def test_observe_ignores_degenerate_samples(self):
        from repro.core.planner import CostBasedPlanner

        p = CostBasedPlanner(units_per_second=1e6)
        p.observe(0.0, 0.1)
        p.observe(1e6, 0.0)
        assert p.predict_ms(1e6) == pytest.approx(1000.0)

    def test_execution_observes_and_recalibrates(self, simple_regions):
        from repro.core import SpatialAggregationEngine

        engine = SpatialAggregationEngine(default_resolution=128)
        before = engine.planner.units_per_second
        engine.execute(_table(10_000, seed=26), simple_regions,
                       SpatialAggregation.count())
        assert engine.planner.units_per_second != before


class TestPlanningCost:
    def test_warm_choose_recomputes_no_bbox(self, monkeypatch, small_table):
        """``plan_viewport`` reads ``regions.bbox`` on every plan; on an
        immutable 297-region set that must be a lookup, not 297
        ``BBox.of_points`` calls."""
        from repro.core.backends.base import ExecutionPlan
        from repro.data import CityModel, voronoi_regions
        from repro.geometry import BBox

        regions = voronoi_regions(CityModel(7), 297, name="districts")
        assert regions.bbox is regions.bbox
        assert regions[0].bbox is regions[0].bbox
        engine = SpatialAggregationEngine(default_resolution=256)
        plan = ExecutionPlan(table=small_table, regions=regions,
                             query=SpatialAggregation.count())
        engine.planner.choose(engine.ctx, plan)

        calls = []
        of_points = BBox.of_points.__func__
        monkeypatch.setattr(
            BBox, "of_points",
            classmethod(lambda cls, pts: calls.append(1) or of_points(cls, pts)))
        engine.planner.choose(engine.ctx, plan)
        assert calls == []
