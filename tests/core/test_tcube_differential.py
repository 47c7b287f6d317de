"""Differential suite: the temporal canvas cube against a fresh scatter.

Hypothesis draws a table (integral, possibly negative ``fare``; random
timestamps; points a little outside the viewport), residual filters, a
bucket width, an aligned or clamped brush and an aggregate, then
checks two things:

* the cube's answer — estimate, ``lower`` and ``upper`` — equals the
  bounded raster join over the same brushed query bitwise (AVG within
  1e-12);
* every prefix plane equals a per-bucket reference fold (one
  ``np.bincount`` per bucket, summed bucket by bucket).

A second property drives drawn brush sequences through an
``InteractiveSession``: aggregates and residual filters from small
pools (so keys repeat) and fresh ones (one-off keys), brushes on drawn
bucket grids, and a ``clear_caches()`` at a drawn step.  Each step is a
re-scatter, a cube build (the previous brush asked for the same cube)
or a cube hit; whichever it is, the answer equals the bounded raster
join bitwise (AVG within 1e-12), and the path is the one the sweep
rule predicts.
"""

from __future__ import annotations

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import (
    SpatialAggregation,
    SpatialAggregationEngine,
    bounded_raster_join,
    build_temporal_canvas_cube,
    cube_for_brush,
)
from repro.raster import Viewport, build_fragment_table
from repro.table import Comparison, PointTable, TimeRange, combine_filters
from repro.table import timestamp_column
from repro.urbane import DataManager, InteractiveSession

HOUR = 3_600
T0 = 1_000_000 // HOUR * HOUR + 1_234  # not on any bucket edge
AGGS = (("count", None), ("sum", "fare"), ("avg", "fare"))
OPS = ("<", "<=", ">", ">=", "!=")

SETTINGS = settings(deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])


@st.composite
def tables(draw) -> PointTable:
    """≤1.5k points over a window a little wider than the regions, with
    pixel-sharing duplicates, integral fares (signed or not) and
    timestamps spread over up to three days."""
    n = draw(st.integers(1, 1_500))
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = gen.uniform(-10, 110, n)
    y = gen.uniform(-10, 110, n)
    dup = gen.random(n) < 0.2
    x[dup] = np.round(x[dup])
    y[dup] = np.round(y[dup])
    fare = np.floor(gen.normal(draw(st.sampled_from([-2.0, 8.0, 30.0])),
                               9.0, n))
    span = draw(st.integers(1, 72)) * HOUR
    t = T0 + gen.integers(0, span, n)
    return PointTable.from_arrays(x, y, name="cube-diff", fare=fare,
                                  t=timestamp_column("t", t))


@st.composite
def residuals(draw) -> tuple:
    return tuple(Comparison("fare", draw(st.sampled_from(OPS)),
                            draw(st.sampled_from([-4.0, 0.0, 6.0, 15.0])))
                 for _ in range(draw(st.integers(0, 2))))


@st.composite
def brushes(draw, bucket: int, min_buckets: int = 0) -> TimeRange:
    """A brush on the bucket grid; edges may clamp past the data."""
    first = T0 // bucket
    last = (T0 + 72 * HOUR) // bucket
    k0 = draw(st.integers(first - 2, last + 1))
    k1 = draw(st.integers(k0 + min_buckets, last + 3))
    return TimeRange("t", k0 * bucket, k1 * bucket)


def assert_match(got, want, agg):
    for name in ("values", "lower", "upper"):
        a, b = getattr(got, name), getattr(want, name)
        if a is None or b is None:
            assert a is None and b is None, name
            continue
        if agg == "avg":
            np.testing.assert_allclose(a, b, rtol=0, atol=1e-12,
                                       equal_nan=True, err_msg=name)
        else:
            assert np.array_equal(a, b, equal_nan=True), name


def reference_planes(table, viewport, residual, bucket, origin, cube):
    """Per-bucket bincounts of the filtered in-viewport points over the
    cube's active pixels, summed bucket by bucket."""
    keep = combine_filters(list(residual)).mask(table)
    pix, inside = viewport.pixel_ids_of(table.x, table.y)
    keep &= inside
    active = np.unique(pix[keep])
    np.testing.assert_array_equal(cube.active_pixels, active)
    cols = np.searchsorted(active, pix[keep])
    buckets = (table.values("t")[keep] - (origin or 0)) // bucket
    fare = table.values("fare")[keep]
    weights = {"count": None, "sum": fare, "mass": np.abs(fare)}
    planes = {}
    for kind in cube.prefix:
        plane = np.zeros((cube.num_buckets + 1, len(active)))
        for b in range(cube.num_buckets):
            rows = buckets == b
            w = weights[kind]
            plane[b + 1] = plane[b] + np.bincount(
                cols[rows], weights=None if w is None else w[rows],
                minlength=len(active))
        planes[kind] = plane
    return planes


@SETTINGS
@given(table=tables(), residual=residuals(), data=st.data(),
       bucket=st.sampled_from([900, HOUR, 2 * HOUR, 6 * HOUR]),
       agg=st.sampled_from(AGGS), resolution=st.integers(16, 96))
def test_cube_matches_scatter_reference(
        simple_regions, table, residual, data, bucket, agg, resolution):
    viewport = Viewport.fit(simple_regions.bbox, resolution)
    fragments = build_fragment_table(list(simple_regions.geometries),
                                     viewport)
    value_column = None if agg[0] == "count" else "fare"
    cube = build_temporal_canvas_cube(table, viewport, "t", bucket,
                                      value_column=value_column,
                                      residual_filters=residual)

    # The planes: a per-bucket reference fold, and the mass plane stored
    # exactly when the column is not provably non-negative.
    expected = ["count"]
    if value_column is not None:
        expected.append("sum")
        if table.values("fare").min() < 0:
            expected.append("mass")
    assert sorted(cube.prefix) == sorted(expected)
    for kind, plane in reference_planes(table, viewport, residual, bucket,
                                        cube.origin, cube).items():
        assert np.array_equal(cube.prefix[kind], plane), kind

    # The answer: bitwise the bounded join's over the brushed query.
    brush = data.draw(brushes(bucket))
    query = SpatialAggregation(agg[0], agg[1], residual + (brush,))
    assert cube.can_answer(query, viewport)
    got = cube.answer(simple_regions, fragments, query)
    want = bounded_raster_join(table, simple_regions, query, viewport,
                               fragments=fragments)
    assert_match(got, want, agg[0])
    assert got.stats["points_in_viewport"] == want.stats["points_in_viewport"]


@st.composite
def brush_steps(draw) -> list:
    """Up to eight (aggregate, residual filters, brush) steps.  Most
    draw from pools of two aggregates and two filter tuples, so keys
    repeat; the rest draw a fresh filter tuple (a one-off key)."""
    aggs = draw(st.lists(st.sampled_from(AGGS), min_size=2, max_size=2))
    pool = [(), draw(residuals())]
    steps = []
    for _ in range(draw(st.integers(1, 8))):
        residual = (draw(residuals()) if draw(st.booleans())
                    and draw(st.booleans()) else draw(st.sampled_from(pool)))
        bucket = draw(st.sampled_from([HOUR, 6 * HOUR]))
        steps.append((draw(st.sampled_from(aggs)), residual,
                      draw(brushes(bucket, min_buckets=1))))
    return steps


@SETTINGS
@given(table=tables(), steps=brush_steps(), resolution=st.integers(16, 96),
       clear_at=st.integers(0, 8))
def test_session_brushes_match_bounded_on_every_path(
        simple_regions, table, steps, resolution, clear_at):
    manager = DataManager(SpatialAggregationEngine())
    manager.add_dataset(table, "pts")
    manager.add_region_set(simple_regions, "simple")
    session = InteractiveSession(manager, "pts", "simple",
                                 method="bounded", resolution=resolution)
    ctx = manager.engine.ctx
    viewport = ctx.plan_viewport(simple_regions, resolution, None)
    fragments = build_fragment_table(list(simple_regions.geometries),
                                     viewport)
    previous = None  # the session's last cube spec, modelled independently
    for step, (agg, residual, brush) in enumerate(steps):
        if step == clear_at:
            manager.clear_caches()  # the session's memory outlives it
        session.state.agg = SpatialAggregation(agg[0], agg[1])
        session.state.filters = residual
        query = SpatialAggregation(agg[0], agg[1], residual + (brush,))
        chosen = cube_for_brush(ctx, table, query, viewport)
        # A repeated step must reach the cube path, not a stored answer.
        ctx.cache.invalidate("answer")

        got = session.brush_time(brush.start, brush.end)

        backend = session.log[-1].backend
        if chosen is None or (isinstance(chosen, tuple)
                              and chosen != previous):
            assert backend == "bounded"  # no cube, or not a sweep
        else:
            assert backend == "tcube-raster"
            assert got.stats["tcube"]["built"] == isinstance(chosen, tuple)
        previous = chosen if isinstance(chosen, tuple) or chosen is None \
            else chosen.spec
        want = bounded_raster_join(table, simple_regions, query, viewport,
                                   fragments=fragments)
        assert_match(got, want, agg[0])
