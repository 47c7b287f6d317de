"""Lazy join rows: the temporal cube against the bounded join, brush by
brush.

A cube gathers a prefix row per (run family, kind, bucket) over a
fragment table's runs the first time a brush touches that bucket edge,
and memoises it.  Hypothesis draws a table, a cube over it, a second
(overlapping) region set at the cube's viewport and a sequence of
brushes from a small pool, so memo hits and misses interleave across
both fragment tables.  Every answer must equal the bounded raster join
over the same brushed query: COUNT and integral SUM bitwise (answers and
bounds), AVG within 1e-12.

Deterministic cases pin the edges of the run-to-column mapping: an
empty active set, runs over no active pixel, and a run ending at the
last active column (the run gather's tail case).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core import (
    RegionSet,
    SpatialAggregation,
    bounded_raster_join,
    build_temporal_canvas_cube,
)
from repro.geometry import regular_polygon
from repro.raster import Viewport, build_fragment_table
from repro.raster import canvas as raster_canvas
from repro.table import PointTable, TimeRange, timestamp_column

from .test_tcube_differential import (
    AGGS,
    HOUR,
    SETTINGS,
    T0,
    assert_match,
    brushes,
    residuals,
    tables,
)


@st.composite
def overlapping_regions(draw) -> RegionSet:
    """One to four regular polygons on a quarter-unit lattice over
    [0, 100]^2, free to overlap each other and the window's edges."""
    quarter = st.integers(0, 400).map(lambda q: q / 4)
    geometries = [regular_polygon(draw(quarter), draw(quarter),
                                  draw(st.integers(20, 180)) / 4,
                                  draw(st.integers(3, 9)))
                  for _ in range(draw(st.integers(1, 4)))]
    return RegionSet("overlap", geometries,
                     [f"r{i}" for i in range(len(geometries))])


def _check(cube, table, regions, fragments, query, viewport):
    got = cube.answer(regions, fragments, query)
    want = bounded_raster_join(table, regions, query, viewport,
                               fragments=fragments)
    assert_match(got, want, query.agg)
    return got


@SETTINGS
@given(table=tables(), residual=residuals(), others=overlapping_regions(),
       bucket=st.sampled_from([HOUR, 6 * HOUR]),
       resolution=st.integers(16, 96), data=st.data())
def test_brush_orders_match_bounded(simple_regions, table, residual, others,
                                    bucket, resolution, data):
    viewport = Viewport.fit(simple_regions.bbox, resolution)
    cube = build_temporal_canvas_cube(table, viewport, "t", bucket,
                                      value_column="fare",
                                      residual_filters=residual)
    sets = [(regions, build_fragment_table(list(regions.geometries),
                                           viewport))
            for regions in (simple_regions, others)]
    pool = data.draw(st.lists(brushes(bucket), min_size=1, max_size=4))
    steps = data.draw(st.lists(
        st.tuples(st.integers(0, 1), st.sampled_from(AGGS),
                  st.sampled_from(pool)), min_size=1, max_size=10))
    answers = {}
    for which, (agg, value), brush in steps:
        regions, fragments = sets[which]
        query = SpatialAggregation(agg, value, residual + (brush,))
        got = _check(cube, table, regions, fragments, query, viewport)
        # A memo hit returns what the miss computed, bit for bit.
        key = (which, agg, brush.start, brush.end)
        if key in answers:
            assert_match(got, answers[key], agg)
        answers[key] = got


def _all_queries(t0, t1):
    brush = TimeRange("t", t0, t1)
    return [SpatialAggregation(agg, value, (brush,)) for agg, value in AGGS]


@pytest.fixture(scope="module")
def scene(simple_regions):
    viewport = Viewport.fit(simple_regions.bbox, 48)
    fragments = build_fragment_table(list(simple_regions.geometries),
                                     viewport)
    return viewport, fragments


def test_empty_active_set(simple_regions, scene):
    """Every point off-screen: no active column, every row zero."""
    viewport, fragments = scene
    table = PointTable.from_arrays(
        np.array([150.0, -40.0]), np.array([50.0, 50.0]), name="off",
        fare=np.array([3.0, 4.0]),
        t=timestamp_column("t", np.array([T0, T0 + HOUR])))
    cube = build_temporal_canvas_cube(table, viewport, "t", HOUR,
                                      value_column="fare")
    assert cube.num_active_pixels == 0
    for query in _all_queries(T0 - HOUR, T0 + 3 * HOUR):
        got = _check(cube, table, simple_regions, fragments, query,
                     viewport)
        if query.agg != "avg":
            assert not got.values.any()


def _cube_at(viewport, pixels):
    """A fare cube over one point at the center of each pixel, spread
    over three hours."""
    x, y = viewport.pixel_center(pixels % viewport.width,
                                 pixels // viewport.width)
    t = T0 + (np.arange(len(pixels)) % 3) * HOUR
    table = PointTable.from_arrays(
        x, y, name="lazy-rows", fare=(np.arange(len(pixels)) % 7) * 1.0,
        t=timestamp_column("t", t))
    cube = build_temporal_canvas_cube(table, viewport, "t", HOUR,
                                      value_column="fare")
    np.testing.assert_array_equal(cube.active_pixels, np.sort(pixels))
    return table, cube


def _check_brushes(cube, table, regions, fragments, viewport):
    for t0, t1 in ((T0 - HOUR, T0 + 4 * HOUR), (T0 + HOUR, T0 + 3 * HOUR),
                   (T0 - HOUR, T0 + HOUR)):
        for query in _all_queries(t0 // HOUR * HOUR, t1 // HOUR * HOUR):
            _check(cube, table, regions, fragments, query, viewport)


def _columns(cube, fragments, family):
    """A run family's active-column ranges ``(first, stop)``."""
    starts, lengths, _ = fragments.intervals.runs(family)
    return (np.searchsorted(cube.active_pixels, starts),
            np.searchsorted(cube.active_pixels, starts + lengths))


def test_runs_over_no_active_pixel(simple_regions, scene):
    """Two points, one deep in a FULL run and one on the last pixel any
    run covers: most runs cover neither and drop out of the mapping."""
    viewport, fragments = scene
    iv = fragments.intervals
    last = max(int((iv.runs(f)[0] + iv.runs(f)[1]).max())
               for f in ("full", "covered", "partial")) - 1
    starts, lengths, _ = iv.runs("full")
    widest = int(np.argmax(lengths))
    table, cube = _cube_at(viewport, np.array(
        [starts[widest] + lengths[widest] // 2, last]))
    for family in ("full", "covered", "partial"):
        lo, hi = _columns(cube, fragments, family)
        assert (hi == lo).any() and (hi > lo).any(), family
    _check_brushes(cube, table, simple_regions, fragments, viewport)


def test_run_ending_at_the_last_active_column(simple_regions, scene):
    """A point on every pixel a run covers, up to the end of the last
    FULL run, except the pixels of the widest FULL run: the other FULL
    runs keep their length in columns (so they gather by ``reduceat``),
    one of them ends at the last active column — the run gather's tail
    case — and the emptied run must drop out rather than reduce one
    column."""
    viewport, fragments = scene
    starts, lengths, _ = fragments.intervals.runs("full")
    stops = starts + lengths
    covered = np.unique(np.concatenate([
        fragments.boundary_pixels, fragments.interior_pixels]))
    widest = int(np.argmax(lengths))
    keep = (covered < stops.max()) & ~(
        (covered >= starts[widest]) & (covered < stops[widest]))
    table, cube = _cube_at(viewport, covered[keep])
    lo, hi = _columns(cube, fragments, "full")
    assert (hi == lo).sum() == 1
    assert (hi - lo).mean() >= raster_canvas.SHORT_RUN_PIXELS
    assert (hi == cube.num_active_pixels).any()
    _check_brushes(cube, table, simple_regions, fragments, viewport)
