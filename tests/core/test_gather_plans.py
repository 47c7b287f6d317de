"""Gather plans kept with the fragment table.

1. *Reuse* — a family's :func:`~repro.raster.canvas.run_gather` plan,
   prepared once and applied to many canvases, must give the bits a
   fresh :func:`~repro.raster.gather_runs` gives on each: every run
   family, ``np.add`` / ``np.minimum`` / ``np.maximum``, canvases
   holding NaN, +-inf and -0.0, on the short-run (expanded) and the
   long-run (``reduceat``) path.  A plan is keyed by (family, canvas
   size, region count) and never serves another size or count.
2. *Ledger* — a cached table's plans are cache entries of their own:
   after a bounded join the cache's bytes include them, the accurate
   join prepares no plan for a family it never gathers, evicting the
   table takes its plans with it, and a table's plan hook keeps no
   dropped engine's cache alive.
"""

from __future__ import annotations

import gc
import weakref
from dataclasses import replace
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import SpatialAggregation, SpatialAggregationEngine
from repro.core.cache import QueryCache
from repro.raster import build_fragment_table, gather_runs
from repro.raster import canvas as raster_canvas
from repro.table import F

from tests.raster.test_batched_build import scenes

FAMILIES = ("full", "covered", "partial")
UFUNCS = ((np.add, 0.0), (np.minimum, np.inf), (np.maximum, -np.inf))
SPECIALS = np.array([np.nan, np.inf, -np.inf, -0.0, 0.0])
F_FARE = F("fare") > 5.0


class Keeper:
    """A ``plans`` hook over a dict that records every preparation."""

    def __init__(self):
        self.plans: dict = {}
        self.prepared: list = []

    def __call__(self, key, prepare):
        if key not in self.plans:
            self.plans[key] = prepare()
            self.prepared.append(key)
        return self.plans[key]


def _canvases(size: int, seed: int, count: int = 3) -> list[np.ndarray]:
    gen = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        canvas = gen.normal(0, 100, size)
        special = gen.random(size) < 0.2
        canvas[special] = gen.choice(SPECIALS, int(special.sum()))
        out.append(canvas)
    return out


def _fresh(table, family, canvas, groups, ufunc, fill):
    starts, lengths, owners = table.intervals.runs(family)
    return gather_runs(canvas, starts, starts + lengths, owners, groups,
                       ufunc, fill,
                       order=getattr(table.intervals, f"{family}_order"))


@settings(deadline=None)
@given(scenes(), st.integers(0, 2**32 - 1), st.sampled_from([0, 10**9]))
def test_a_kept_plan_gathers_like_a_fresh_one(scene, seed, short):
    """One plan per (family, size, region count) serves every canvas and
    ufunc, bitwise equal to a fresh gather; ``short`` forces every run
    onto the long-run (0) or the expanded (10**9) path."""
    geometries, viewport = scene
    keeper = Keeper()
    table = replace(build_fragment_table(geometries, viewport),
                    plans=keeper)
    n = table.num_polygons
    size = viewport.num_pixels
    with mock.patch.object(raster_canvas, "SHORT_RUN_PIXELS", short):
        for canvas in _canvases(size, seed):
            for family in FAMILIES:
                for ufunc, fill in UFUNCS:
                    got = table.intervals.gather(family, canvas, n, ufunc,
                                                 fill, plans=table.plans)
                    want = _fresh(table, family, canvas, n, ufunc, fill)
                    assert got.tobytes() == want.tobytes(), (family, ufunc)
        assert sorted(keeper.prepared) == sorted(
            (family, size, n) for family in FAMILIES)

        # A larger canvas or more regions get plans of their own.
        wide = _canvases(size + 7, seed, 1)[0]
        for family in FAMILIES:
            got = table.intervals.gather(family, wide, n, np.maximum,
                                         -np.inf, plans=table.plans)
            want = _fresh(table, family, wide, n, np.maximum, -np.inf)
            assert got.tobytes() == want.tobytes()
            got = table.intervals.gather(family, wide, n + 2, np.add, 0.0,
                                         plans=keeper)
            want = _fresh(table, family, wide, n + 2, np.add, 0.0)
            assert len(got) == n + 2
            assert got.tobytes() == want.tobytes()
    assert len(keeper.prepared) == len(set(keeper.prepared)) == 9


def test_a_plan_reports_its_bytes():
    starts = np.array([0, 5, 9])
    stops = np.array([3, 9, 10])
    owners = np.array([0, 1, 1])
    for short in (0, 10**9):
        with mock.patch.object(raster_canvas, "SHORT_RUN_PIXELS", short):
            plan = raster_canvas.run_gather(10, starts, stops, owners, 2)
        assert plan.nbytes > 0
        canvas = np.arange(10.0)
        assert plan(canvas, np.add, 0.0).tolist() == [3.0, 5 + 6 + 7 + 8 + 9]


def _plan_keys(cache) -> set[tuple]:
    return {k for k in cache.keys() if k[0] == "gather-plan"}


def test_bounded_join_charges_its_plans_and_eviction_drops_them(
        simple_regions, small_table):
    engine = SpatialAggregationEngine(default_resolution=256)
    query = SpatialAggregation.sum_of("fare", F_FARE)
    engine.execute(small_table, simple_regions, query, method="bounded")
    cache = engine.ctx.cache
    keys = _plan_keys(cache)
    assert {k[2] for k in keys} == set(FAMILIES)
    (fragments_key,) = {k[1] for k in keys}
    fragments = cache.peek(fragments_key)
    assert {k[3:] for k in keys} == {
        (fragments.viewport.num_pixels, fragments.num_polygons)}
    plan_bytes = sum(cache.peek(k).nbytes for k in keys)
    assert plan_bytes > 0

    # A repeat under another filter reuses the plans: nothing prepared.
    engine.execute(small_table, simple_regions,
                   SpatialAggregation.sum_of("fare"), method="bounded")
    assert _plan_keys(cache) == keys

    before = cache.total_bytes
    assert cache.invalidate("fragments") == 1
    assert _plan_keys(cache) == set()
    assert before - cache.total_bytes == fragments.memory_bytes() + plan_bytes


def test_accurate_join_prepares_only_what_it_gathers(simple_regions,
                                                     small_table):
    engine = SpatialAggregationEngine(default_resolution=256)
    engine.execute(small_table, simple_regions,
                   SpatialAggregation.count(F_FARE), method="accurate")
    assert {k[2] for k in _plan_keys(engine.ctx.cache)} == {"full"}


def test_lru_eviction_of_a_table_takes_its_plans():
    cache = QueryCache(max_entries=3)
    table_key = ("fragments", "regions", "viewport")
    cache.put(table_key, np.zeros(4))
    cache.put(("gather-plan", table_key, "full", 4, 1), np.zeros(2))
    cache.put(("gather-plan", table_key, "partial", 4, 1), np.zeros(2))
    cache.put(("answer", 1), np.zeros(1))  # evicts the table, LRU-first
    assert cache.keys() == [("answer", 1)]
    assert cache.total_bytes == 8
    assert cache.family("gather-plan", table_key) == []



def test_plans_keep_no_dropped_engine_alive(simple_regions, small_table):
    """A cached table reaches its cache only weakly: dropping an engine
    after a bounded join frees its cache at once, not at the next
    garbage collection."""
    engine = SpatialAggregationEngine(default_resolution=128)
    engine.execute(small_table, simple_regions,
                   SpatialAggregation.count(F_FARE), method="bounded")
    assert _plan_keys(engine.ctx.cache)
    cache = weakref.ref(engine.ctx.cache)
    gc.disable()
    try:
        del engine
        assert cache() is None
    finally:
        gc.enable()
