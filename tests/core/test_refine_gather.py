"""Properties of the accurate join's two batched steps.

1. *Refine* — :func:`repro.core.accurate._refine` decides every
   (point, geometry) pair at once and must equal the geometry's own
   ``contains_points`` bit for bit: holes, multipolygons, overlapping
   regions, points on vertices, on edges (horizontal ones included) and
   on pixel grid lines, under any chunking of the expansion.
2. *Run gather* — :func:`repro.raster.gather_runs` must equal the
   per-pixel ``gather_sum`` / ``gather_reduce`` over the expanded
   pairs: COUNT and MIN/MAX bitwise (NaN and the empty fill included),
   SUM bitwise on integral canvases and within 1e-12 of the summed
   magnitudes otherwise (a reassociated fold).

Scenes come from the fragment-builder suite: lattice vertices, so every
sampled boundary point is exactly on its edge.
"""

from __future__ import annotations

from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import accurate
from repro.raster import canvas as raster_canvas
from repro.raster import (
    build_fragment_table,
    gather_reduce,
    gather_runs,
    gather_sum,
)

from tests.raster.test_batched_build import scenes

REDUCERS = ((np.minimum, np.inf), (np.maximum, -np.inf))


def _scene_points(geometries, viewport, seed: int) -> np.ndarray:
    """Ring vertices, edge samples, pixel corners / centers and random
    points of a scene."""
    gen = np.random.default_rng(seed)
    t = (np.arange(9) / 8)[:, None]
    pts = []
    for geometry in geometries:
        for ring in geometry.rings():
            b = np.roll(ring, -1, axis=0)
            pts.append(ring)
            pts.append((ring[:, None, :] + t * (b - ring)[:, None, :])
                       .reshape(-1, 2))
    i = gen.integers(-1, 2 * viewport.width + 2, 200) / 2
    j = gen.integers(-1, 2 * viewport.height + 2, 200) / 2
    pts.append(np.column_stack([viewport.bbox.xmin + i * viewport.pixel_width,
                                viewport.bbox.ymin + j * viewport.pixel_height]))
    box = viewport.bbox
    pts.append(np.column_stack([gen.uniform(box.xmin, box.xmax, 200),
                                gen.uniform(box.ymin, box.ymax, 200)]))
    return np.concatenate(pts)


@settings(deadline=None)
@given(scenes(), st.integers(0, 2**32 - 1), st.integers(1, 64))
def test_refine_equals_contains_points(scene, seed, chunk):
    geometries, viewport = scene
    pts = _scene_points(geometries, viewport, seed)
    # Every point against every geometry, shuffled: pairs of one
    # geometry need not be contiguous.
    owners = np.repeat(np.arange(len(geometries)), len(pts))
    point = np.tile(np.arange(len(pts)), len(geometries))
    order = np.random.default_rng(seed).permutation(len(owners))
    owners, point = owners[order], point[order]
    with mock.patch.object(accurate, "REFINE_CHUNK", chunk):
        got, tested = accurate._refine(geometries, pts[point, 0],
                                       pts[point, 1], owners)
    masks = np.array([g.contains_points(pts) for g in geometries])
    np.testing.assert_array_equal(got, masks[owners, point])
    edges = np.array([sum(len(r) for r in g.rings()) for g in geometries])
    assert tested == int(edges[owners].sum())


@st.composite
def runs(draw):
    """Runs over a small canvas in ascending start order: overlapping,
    touching, one pixel long, ending at the canvas end."""
    size = draw(st.integers(1, 40))
    starts = np.array(sorted(draw(st.lists(
        st.integers(0, size - 1), max_size=30))), dtype=np.int64)
    lengths = np.array([draw(st.integers(1, size - s)) for s in starts],
                       dtype=np.int64)
    groups = draw(st.integers(1, 5))
    owners = np.array([draw(st.integers(0, groups - 1)) for _ in starts],
                      dtype=np.int64)
    return size, starts, starts + lengths, owners, groups


def _pairs(starts, stops, owners):
    lengths = stops - starts
    pix = np.concatenate([np.arange(a, b) for a, b in zip(starts, stops)]
                         ) if len(starts) else np.empty(0, dtype=np.int64)
    return pix, np.repeat(owners, lengths)


def _assert_gather(canvas, starts, stops, owners, groups, integral,
                   order=None):
    pix, pix_groups = _pairs(starts, stops, owners)
    got = gather_runs(canvas, starts, stops, owners, groups, np.add, 0.0,
                      order=order)
    want = gather_sum(canvas, pix, pix_groups, groups)
    if integral:
        np.testing.assert_array_equal(got, want)
    else:
        scale = gather_sum(np.abs(canvas), pix, pix_groups, groups)
        close = np.abs(got - want) <= 1e-12 * scale
        assert (close | (np.isnan(got) & np.isnan(want))).all()
    for ufunc, fill in REDUCERS:
        live = np.where(np.isnan(canvas) | (canvas > 0), canvas, fill)
        got = gather_runs(live, starts, stops, owners, groups, ufunc, fill,
                          order=order)
        want = gather_reduce(live, pix, pix_groups, groups, ufunc, fill)
        np.testing.assert_array_equal(got, want)


@given(runs(), st.integers(0, 2**32 - 1))
def test_run_gather_equals_pixel_gather(drawn, seed):
    """Both gathers — ``reduceat`` per run, and the expanded one for
    short runs — on runs in start order, and shuffled with ``order``."""
    size, starts, stops, owners, groups = drawn
    gen = np.random.default_rng(seed)
    counts = gen.integers(0, 4, size).astype(np.float64)
    values = gen.normal(0, 100, size)
    values[gen.random(size) < 0.1] = np.nan
    shuffle = gen.permutation(len(starts))
    for short in (0, 10**9):
        with mock.patch.object(raster_canvas, "SHORT_RUN_PIXELS", short):
            for runs, order in (((starts, stops, owners), None),
                                ((starts[shuffle], stops[shuffle],
                                  owners[shuffle]), np.argsort(shuffle))):
                _assert_gather(counts, *runs, groups, True, order=order)
                _assert_gather(np.where(np.isnan(values), 0.0, values),
                               *runs, groups, False, order=order)
                _assert_gather(values, *runs, groups, False, order=order)


@settings(deadline=None)
@given(scenes(), st.integers(0, 2**32 - 1))
def test_run_gather_over_scene_runs(scene, seed):
    geometries, viewport = scene
    table = build_fragment_table(geometries, viewport)
    gen = np.random.default_rng(seed)
    counts = gen.integers(0, 4, viewport.num_pixels).astype(np.float64)
    values = gen.normal(0, 100, viewport.num_pixels)
    iv = table.intervals
    for family in ("full", "covered", "partial"):
        starts, lengths, owners = iv.runs(family)
        order = getattr(iv, f"{family}_order")
        assert (np.diff(starts[order]) >= 0).all()
        for canvas, integral in ((counts, True), (values, False)):
            _assert_gather(canvas, starts, starts + lengths, owners,
                           len(geometries), integral, order=order)
            got = iv.gather(family, canvas, len(geometries))
            want = gather_runs(canvas, starts, starts + lengths, owners,
                               len(geometries), np.add, 0.0, order=order)
            np.testing.assert_array_equal(got, want)
