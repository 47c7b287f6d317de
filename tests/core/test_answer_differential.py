"""Differential suite: the engine's answer tier against a recompute.

Hypothesis draws a small table and a gesture sequence — pans, zooms,
region-level switches, filter toggles, time brushes on hour grids (so
the temporal cube builds and serves) and every aggregate — from small
pools, so states repeat and the answer tier serves them.  The sequence
is replayed through an ``InteractiveSession`` twice on two engines:
once as is, and once with every stored answer dropped
(``cache.invalidate("answer")``) before each gesture, so every step is
recomputed.  Both replays must return bitwise-equal values, ``lower``
and ``upper`` at every step — under the default cache budget and under
a one-entry budget that evicts stored answers between gestures.
"""

from __future__ import annotations

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import RegionSet, SpatialAggregation, SpatialAggregationEngine
from repro.geometry import Polygon
from repro.table import Comparison, PointTable, timestamp_column
from repro.urbane import DataManager, InteractiveSession

HOUR = 3_600
T0 = 1_000_000 // HOUR * HOUR + 1_234  # not on any bucket edge
AGGS = [SpatialAggregation(agg, None if agg == "count" else "fare")
        for agg in ("count", "sum", "avg", "min", "max")]
FILTERS = (Comparison("fare", ">", 6.0), Comparison("fare", "<=", 0.0))

SETTINGS = settings(deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])

HALVES = RegionSet("halves", [
    Polygon([[0, 0], [50, 0], [50, 100], [0, 100]]),
    Polygon([[50, 0], [100, 0], [100, 100], [50, 100]])], ["west", "east"])


@st.composite
def tables(draw) -> PointTable:
    """<=1.2k points a little beyond the regions, integral fares and
    timestamps over up to two days."""
    n = draw(st.integers(1, 1_200))
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    fare = np.floor(gen.normal(draw(st.sampled_from([-2.0, 8.0])), 9.0, n))
    t = T0 + gen.integers(0, draw(st.integers(1, 48)) * HOUR, n)
    return PointTable.from_arrays(
        gen.uniform(-10, 110, n), gen.uniform(-10, 110, n), name="pts",
        fare=fare, t=timestamp_column("t", t))


def brushes(bucket: int):
    first = T0 // bucket
    return st.tuples(st.just("brush"), st.integers(first - 1, first + 3),
                     st.integers(1, 4)).map(
        lambda g: ("brush", g[1] * bucket, (g[1] + g[2]) * bucket))


gestures = st.one_of(
    st.tuples(st.just("pan"), st.sampled_from([-16, 0, 16]),
              st.sampled_from([-16, 0, 16])),
    st.tuples(st.just("zoom"), st.sampled_from([2.0, 0.5])),
    st.just(("level",)),
    st.tuples(st.just("filter"), st.sampled_from(FILTERS)),
    st.just(("clear",)),
    brushes(HOUR), brushes(6 * HOUR),
    st.just(("unbrush",)),
    st.tuples(st.just("aggregate"), st.sampled_from(AGGS)),
)


@st.composite
def scripts(draw) -> list:
    """Up to 16 gestures, most drawn from a pool of up to four so that
    states repeat (a level toggle, a brush, an aggregate switch)."""
    pool = draw(st.lists(gestures, min_size=1, max_size=4))
    return draw(st.lists(st.one_of(st.sampled_from(pool), gestures),
                         min_size=1, max_size=16))


def apply(session: InteractiveSession, gesture: tuple):
    op = gesture[0]
    if op == "pan":
        return session.pan(gesture[1], gesture[2])
    if op == "zoom":
        return session.zoom(gesture[1])
    if op == "level":
        other = "halves" if session.state.regions == "simple" else "simple"
        return session.set_region_level(other)
    if op == "filter":
        return session.add_filter(gesture[1])
    if op == "clear":
        return session.clear_filters()
    if op == "brush":
        return session.brush_time(gesture[1], gesture[2])
    if op == "unbrush":
        return session.clear_time_brush()
    return session.set_aggregation(gesture[1])


def replay(table, regions, resolution, entries, script, recompute):
    """Each gesture's result, and how many came from the answer tier."""
    kwargs = {} if entries is None else {"cache_max_entries": entries}
    manager = DataManager(SpatialAggregationEngine(**kwargs))
    manager.add_dataset(table, "pts")
    manager.add_region_set(regions, "simple")
    manager.add_region_set(HALVES, "halves")
    session = InteractiveSession(manager, "pts", "simple",
                                 method="bounded", resolution=resolution)
    results, hits = [], 0
    for gesture in script:
        if recompute:
            manager.engine.ctx.cache.invalidate("answer")
        result = apply(session, gesture)
        hits += "answer" in result.stats
        results.append(result)
    return results, hits


def test_answer_tier_matches_a_recompute(simple_regions):
    hits_by_budget = {None: 0, 1: 0}

    @SETTINGS
    @given(tables(), st.integers(16, 64), st.sampled_from([None, 1]),
           scripts())
    def check(table, resolution, entries, script):
        served, hits = replay(table, simple_regions, resolution, entries,
                              script, recompute=False)
        fresh, none = replay(table, simple_regions, resolution, entries,
                             script, recompute=True)
        assert none == 0
        hits_by_budget[entries] += hits
        for step, (got, want) in enumerate(zip(served, fresh)):
            assert got.method == want.method, (step, script[step])
            for name in ("values", "lower", "upper"):
                a, b = getattr(got, name), getattr(want, name)
                if a is None or b is None:
                    assert a is None and b is None, (step, name)
                    continue
                assert a.tobytes() == b.tobytes(), (step, script[step], name)

    check()
    # The property is vacuous unless repeated states were served.
    assert hits_by_budget[None] > 0, hits_by_budget
