"""Differential suite: a store against the in-memory engine.

Hypothesis draws a small table (NaN and negative values included), a
store layout for it, a filter list, an aggregate and a canvas shape,
then runs the query twice: out-of-core over the opened store, and in
memory over ``Dataset.to_table()``.  Both sides fold every pixel's
points in (manifest order, row order), so COUNT/SUM/MIN/MAX must agree
bitwise — estimate and bounds — and AVG within 1e-12.

Canvas shapes:

* a planned viewport (``resolution=``) and an explicit zoomed window;
* a :class:`~repro.core.pyramid.GridViewport` gesture — cold, pan,
  zoom out — on one engine per side, so block caches evolve alike;
* the tiled join at a small ``tile_pixels``.
"""

from __future__ import annotations

import tempfile

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import (
    ExecutionPlan,
    SpatialAggregation,
    SpatialAggregationEngine,
    tiled_bounded_raster_join,
)
from repro.geometry import BBox
from repro.raster import Viewport
from repro.store import PartitionPruner, build_store
from repro.store.execute import _execute_tiled
from repro.table import Comparison, Not, Or, PointTable, TimeRange
from repro.table import timestamp_column

HOUR = 3_600
OPS = ("<", "<=", ">", ">=", "==", "!=")
AGGS = (("count", None), ("sum", "fare"), ("avg", "fare"), ("min", "fare"),
        ("max", "fare"))

SETTINGS = settings(deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])


@st.composite
def tables(draw) -> PointTable:
    """≤2k points over a window a little wider than the regions, with
    pixel-sharing duplicates, and a ``fare`` column mixing negative,
    non-integral and NaN values."""
    n = draw(st.integers(1, 2_000))
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = gen.uniform(-10, 110, n)
    y = gen.uniform(-10, 110, n)
    dup = gen.random(n) < 0.2
    x[dup] = np.round(x[dup])
    y[dup] = np.round(y[dup])
    if draw(st.booleans()):
        fare = np.floor(gen.normal(4.0, 9.0, n))
    else:
        fare = gen.normal(4.0, 9.0, n)
    fare[gen.random(n) < draw(st.sampled_from([0.0, 0.02, 0.2]))] = np.nan
    return PointTable.from_arrays(
        x, y, name="diff-pts", fare=fare,
        t=timestamp_column("t", gen.integers(0, 8 * HOUR, n)),
        kind=gen.choice(["a", "b", "c"], n))


@st.composite
def layouts(draw) -> dict:
    return {
        "partition_rows": draw(st.sampled_from([64, 200, 512, 4_096])),
        "grid": draw(st.sampled_from([1, 2, 4])),
        "time_bucket_seconds": draw(st.sampled_from([None, HOUR, 2 * HOUR])),
    }


def _atoms(draw):
    kind = draw(st.sampled_from(["fare", "fare-nan", "time", "kind"]))
    if kind == "fare":
        return Comparison("fare", draw(st.sampled_from(OPS)),
                          draw(st.sampled_from([-5.0, 0.0, 2.5, 7.0])))
    if kind == "fare-nan":
        return Comparison("fare", draw(st.sampled_from(OPS)), float("nan"))
    if kind == "time":
        # Bucket-aligned edges: the half-open end must exclude exactly.
        start = draw(st.integers(0, 7)) * HOUR
        return TimeRange("t", start, start + draw(st.integers(0, 4)) * HOUR)
    return Comparison("kind", draw(st.sampled_from(["==", "!="])),
                      draw(st.sampled_from(["a", "c", "zz"])))


@st.composite
def filter_lists(draw) -> tuple:
    out = []
    for _ in range(draw(st.integers(0, 2))):
        expr = _atoms(draw)
        shape = draw(st.sampled_from(["plain", "not", "or"]))
        if shape == "not":
            expr = Not(expr)
        elif shape == "or":
            expr = Or(expr, _atoms(draw))
        out.append(expr)
    return tuple(out)


@st.composite
def queries(draw) -> SpatialAggregation:
    agg, column = draw(st.sampled_from(AGGS))
    return SpatialAggregation(agg, column, draw(filter_lists()))


def assert_match(got, want, agg):
    for name in ("values", "lower", "upper"):
        a, b = getattr(got, name), getattr(want, name)
        if a is None or b is None:
            assert a is None and b is None, name
            continue
        a, b = np.asarray(a), np.asarray(b)
        if agg == "avg":
            np.testing.assert_allclose(a, b, rtol=0, atol=1e-12,
                                       equal_nan=True, err_msg=name)
        else:
            assert np.array_equal(a, b, equal_nan=True), name


def _store(table, layout, tmp):
    return build_store(table, tmp + "/pts", time_column="t", **layout)


@SETTINGS
@given(table=tables(), layout=layouts(), query=queries(),
       resolution=st.integers(16, 96), zoom=st.floats(0.15, 1.0),
       cx=st.floats(0.2, 0.8), cy=st.floats(0.2, 0.8))
def test_planned_and_window_viewports(simple_regions, table, layout, query,
                                      resolution, zoom, cx, cy):
    with tempfile.TemporaryDirectory() as tmp:
        store = _store(table, layout, tmp)
        reference = store.to_table()
        engine = SpatialAggregationEngine()
        got = engine.execute(store, simple_regions, query,
                             resolution=resolution)
        want = engine.execute(reference, simple_regions, query,
                              method="bounded", resolution=resolution)
        assert got.method == "store-bounded-raster-join"
        assert_match(got, want, query.agg)

        box = simple_regions.bbox
        w, h = box.width * zoom / 2, box.height * zoom / 2
        x = box.xmin + box.width * cx
        y = box.ymin + box.height * cy
        window = Viewport.fit(BBox(x - w, y - h, x + w, y + h), resolution)
        got = engine.execute(store, simple_regions, query, viewport=window)
        want = engine.execute(reference, simple_regions, query,
                              method="bounded", viewport=window)
        assert_match(got, want, query.agg)


@SETTINGS
@given(table=tables(), layout=layouts(), query=queries(),
       resolution=st.integers(24, 96), block=st.sampled_from([8, 16, 32]),
       dx=st.integers(-40, 40), dy=st.integers(-40, 40))
def test_grid_viewport_cold_pan_zoom_out(simple_regions, table, layout,
                                         query, resolution, block, dx, dy):
    with tempfile.TemporaryDirectory() as tmp:
        store = _store(table, layout, tmp)
        reference = store.to_table()
        on_store = SpatialAggregationEngine()
        in_memory = SpatialAggregationEngine()
        gv = on_store.ctx.plan_grid_viewport(simple_regions, resolution,
                                             block=block)
        for frame in (gv, gv.pan(dx, dy), gv.pan(dx, dy).zoom(2.0)):
            got = on_store.execute(store, simple_regions, query,
                                   viewport=frame)
            want = in_memory.execute(reference, simple_regions, query,
                                     method="bounded", viewport=frame)
            assert got.method == "store-pyramid-raster-join"
            assert want.method == "pyramid-raster-join"
            assert_match(got, want, query.agg)


@SETTINGS
@given(table=tables(), layout=layouts(), query=queries(),
       resolution=st.integers(16, 128), tile_pixels=st.integers(8, 48))
def test_tiled_small_tiles(simple_regions, table, layout, query, resolution,
                           tile_pixels):
    with tempfile.TemporaryDirectory() as tmp:
        store = _store(table, layout, tmp)
        reference = store.to_table()
        engine = SpatialAggregationEngine()
        plan = ExecutionPlan(table=store, regions=simple_regions,
                             query=query, method="tiled",
                             resolution=resolution)
        got = _execute_tiled(engine.ctx, store, PartitionPruner(store), plan,
                             resolution, tile_pixels=tile_pixels)
        want = tiled_bounded_raster_join(reference, simple_regions, query,
                                         resolution, tile_pixels=tile_pixels)
        assert got.method == "store-tiled-bounded-raster-join"
        assert_match(got, want, query.agg)
