"""Differential suite: the pyramid's admission rule on a live session.

A first sighting of a (table, filters, aggregate, grid) family on a
grid viewport runs one direct point pass and installs no block; once
the family's viewport moves, frames assemble from (and fill) the block
cache.  Hypothesis draws a small table and a gesture sequence for one
``InteractiveSession`` pinned to its canvas grid: first sightings,
exact repeats (served by the answer tier), pans out and back, zooms out
and in, aggregate switches and a ``fare`` filter added and cleared.

At every step:

* the answer (values, ``lower``, ``upper``) is bitwise equal to
  ``bounded_raster_join`` run on the session's grid viewport;
* ``result.method`` is ``pyramid-raster-join`` whichever path ran, and
  ``stats["pyramid"]["path"]`` names the path;
* the path is the one the rule predicts from a model of the family
  memory kept here: a moved family assembles, a family that never
  assembled and has not moved runs direct, and a direct frame leaves
  the block cache as it found it.
"""

from __future__ import annotations

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import (
    SpatialAggregation,
    SpatialAggregationEngine,
    bounded_raster_join,
)
from repro.table import Comparison, PointTable
from repro.urbane import DataManager, InteractiveSession

AGGS = [SpatialAggregation(agg, None if agg == "count" else "fare")
        for agg in ("count", "sum", "avg", "min", "max")]
FILTERS = (Comparison("fare", ">", 6.0), Comparison("fare", "<=", 2.0))

SETTINGS = settings(deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])


@st.composite
def tables(draw) -> PointTable:
    """<=1.5k points a little beyond the regions, integral fares."""
    n = draw(st.integers(1, 1_500))
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return PointTable.from_arrays(
        gen.uniform(-10, 110, n), gen.uniform(-10, 110, n), name="pts",
        fare=np.floor(gen.normal(5.0, 6.0, n)))


PAN = st.sampled_from([-128, -40, 40, 128])

gestures = st.one_of(
    st.just(("repeat",)),
    st.tuples(st.just("out-and-back"), PAN, PAN),
    st.tuples(st.just("pan"), PAN, st.sampled_from([0, 40])),
    st.tuples(st.just("zoom"), st.sampled_from([2.0, 0.5])),
    st.tuples(st.just("filter"), st.sampled_from(FILTERS)),
    st.just(("clear",)),
    st.tuples(st.just("aggregate"), st.sampled_from(AGGS)),
)


def steps(session, gesture):
    """Apply one drawn gesture; yields the result of each refresh."""
    op = gesture[0]
    if op == "repeat":
        yield session.pan(0, 0)
    elif op == "out-and-back":
        yield session.pan(gesture[1], gesture[2])
        yield session.pan(-gesture[1], -gesture[2])
    elif op == "pan":
        yield session.pan(gesture[1], gesture[2])
    elif op == "zoom":
        yield session.zoom(gesture[1])
    elif op == "filter":
        yield session.add_filter(gesture[1])
    elif op == "clear":
        yield session.clear_filters()
    else:
        yield session.set_aggregation(gesture[1])


def block_keys(cache) -> set:
    return {k for k in cache.keys() if k[0] == "canvas-block"}


def test_admission_rule_matches_the_direct_join(simple_regions):
    paths = {"direct": 0, "assembled": 0, "answer": 0}

    @SETTINGS
    @given(tables(), st.sampled_from([160, 256, 300]),
           st.lists(gestures, min_size=1, max_size=12))
    def check(table, resolution, script):
        manager = DataManager(SpatialAggregationEngine())
        manager.add_dataset(table, "pts")
        manager.add_region_set(simple_regions, "simple")
        session = InteractiveSession(manager, "pts", "simple",
                                     method="bounded", resolution=resolution)
        cache = manager.engine.ctx.cache
        last_viewport = {}   # family -> viewport of its last frame
        assembled = set()    # families that have cached blocks
        results = steps(session, ("repeat",))  # pin the grid
        for gesture in [None] + script:
            if gesture is not None:
                results = steps(session, gesture)
            before = block_keys(cache)
            for result in results:
                viewport = session.grid_viewport()
                query = session.state.effective_query()
                want = bounded_raster_join(table, simple_regions, query,
                                           viewport)
                for name in ("values", "lower", "upper"):
                    a, b = getattr(result, name), getattr(want, name)
                    if a is None or b is None:
                        assert a is None and b is None, name
                        continue
                    assert a.tobytes() == b.tobytes(), (gesture, name)
                assert result.method == "pyramid-raster-join"
                if "answer" in result.stats:
                    paths["answer"] += 1
                    before = block_keys(cache)
                    continue
                path = result.stats["pyramid"]["path"]
                paths[path] += 1
                family = (repr(query.filters), query.agg)
                last = last_viewport.get(family)
                if last is not None and last != viewport:
                    assert path == "assembled", gesture
                elif family not in assembled:
                    assert path == "direct", gesture
                if path == "direct":
                    assert block_keys(cache) == before, gesture
                else:
                    assembled.add(family)
                last_viewport[family] = viewport
                before = block_keys(cache)

    check()
    # The property is vacuous unless every path was taken.
    assert all(paths.values()), paths
