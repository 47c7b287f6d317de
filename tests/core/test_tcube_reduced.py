"""Pyramid-aware cube serving: coarse brushes from a finer cube.

A temporal canvas cube built at a base :class:`GridViewport` answers
COUNT brushes at coarser pyramid levels by 2x2-reducing its sliced
canvas — integer counts stay bitwise-exact under any summation order —
provided every coarse query pixel's base footprint lies fully inside
the cube's window.  SUM refuses the reduced path (float reassociation
would break the bitwise contract), and crops that poke past the cube's
coverage are rejected rather than mixing in world the cube never saw.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import (
    SpatialAggregation,
    SpatialAggregationEngine,
    bounded_raster_join,
    build_temporal_canvas_cube,
)
from repro.core.pyramid import Viewport
from repro.core.tcube import find_answering_cube
from repro.raster import build_fragment_table
from repro.errors import CubeError
from repro.table import PointTable, TimeRange, timestamp_column

HOUR = 3_600


@pytest.fixture(scope="module")
def brush_table() -> PointTable:
    gen = np.random.default_rng(909)
    n = 25_000
    x = gen.uniform(0, 100, n)
    y = gen.uniform(0, 100, n)
    fare = np.round(gen.exponential(9.0, n))
    t = gen.integers(0, 12 * HOUR, n)
    return PointTable.from_arrays(x, y, name="brush-pts",
                                  fare=fare, t=timestamp_column("t", t))


@pytest.fixture(scope="module")
def grid(simple_regions):
    engine = SpatialAggregationEngine(default_resolution=256)
    return engine.plan_grid_viewport(simple_regions, 256).grid


@pytest.fixture(scope="module")
def base_viewport(grid):
    """The cube's window: 256x256 base pixels, origin on every coarse
    lattice up to scale 4."""
    return grid.viewport(0, 0, 0, 256, 256)


def _count_brush(t0: int = 2 * HOUR, t1: int = 7 * HOUR):
    return SpatialAggregation("count", None, (TimeRange("t", t0, t1),))


@pytest.fixture(scope="module")
def cube(brush_table, base_viewport):
    return build_temporal_canvas_cube(brush_table, base_viewport,
                                      "t", HOUR)


def _plain(gv) -> Viewport:
    return Viewport(gv.bbox, gv.width, gv.height)


def _frags(regions, viewport):
    return build_fragment_table(list(regions.geometries), viewport)


class TestReduceLevelsFor:
    def test_own_viewport_is_zero(self, cube, base_viewport):
        assert cube.reduce_levels_for(base_viewport) == 0

    @pytest.mark.parametrize("level,col0,row0,size",
                             [(1, 0, 0, 128), (1, 16, 8, 64),
                              (2, 0, 0, 64), (2, 10, 6, 48)])
    def test_accepts_inner_coarse_crops(self, cube, grid,
                                        level, col0, row0, size):
        qv = grid.viewport(level, col0, row0, size, size)
        assert cube.reduce_levels_for(qv) == level

    def test_rejects_crop_past_coverage(self, cube, grid):
        # (96 + 64) * 2 = 320 base pixels: 64 past the cube's 256.
        qv = grid.viewport(1, 96, 0, 64, 64)
        assert cube.reduce_levels_for(qv) is None

    def test_rejects_finer_than_cube(self, cube, grid):
        assert cube.reduce_levels_for(
            grid.viewport(0, 0, 0, 128, 128)) is None

    def test_rejects_plain_viewport(self, cube, base_viewport):
        shifted = Viewport(base_viewport.bbox, 128, 128)
        assert cube.reduce_levels_for(shifted) is None

    def test_rejects_misaligned_cube_origin(self, brush_table, grid):
        # A cube whose origin is off the coarse lattice cannot serve
        # level 1: its pixel pairs straddle coarse-pixel boundaries.
        odd = build_temporal_canvas_cube(
            brush_table, grid.viewport(0, 1, 0, 128, 128), "t", HOUR)
        assert odd.reduce_levels_for(
            grid.viewport(1, 1, 0, 32, 32)) is None


class TestReducedAnswers:
    @pytest.mark.parametrize("level,col0,row0,size",
                             [(1, 0, 0, 128), (1, 16, 8, 64),
                              (2, 10, 6, 48)])
    def test_reduced_count_bitwise(self, cube, brush_table, simple_regions,
                                   grid, level, col0, row0, size):
        qv = grid.viewport(level, col0, row0, size, size)
        query = _count_brush()
        assert cube.can_answer(query, qv)
        got = cube.answer(simple_regions, _frags(simple_regions, qv),
                          query, viewport=qv)
        want = bounded_raster_join(brush_table, simple_regions, query,
                                   _plain(qv))
        for name in ("values", "lower", "upper"):
            assert np.array_equal(np.asarray(getattr(got, name)),
                                  np.asarray(getattr(want, name))), name
        assert got.stats["tcube"]["reduced_levels"] == level

    def test_reduced_counts_points_inside_the_crop(self, cube, brush_table,
                                                   simple_regions, grid):
        """A crop reports the brushed points inside its own window, not
        the whole cube's: the cropped count canvas is exact."""
        qv = grid.viewport(1, 16, 8, 64, 64)
        query = _count_brush()
        got = cube.answer(simple_regions, _frags(simple_regions, qv),
                          query, viewport=qv)
        want = bounded_raster_join(brush_table, simple_regions, query,
                                   _plain(qv))
        assert got.stats["points_in_viewport"] == \
            want.stats["points_in_viewport"] == 2118

    def test_base_answer_reports_zero_levels(self, cube, simple_regions,
                                             base_viewport):
        got = cube.answer(
            simple_regions, _frags(simple_regions, base_viewport),
            _count_brush(), viewport=base_viewport)
        assert got.stats["tcube"]["reduced_levels"] == 0

    def test_sum_refuses_reduced(self, brush_table, grid, simple_regions):
        cube = build_temporal_canvas_cube(
            brush_table, grid.viewport(0, 0, 0, 256, 256), "t", HOUR,
            value_column="fare")
        query = SpatialAggregation("sum", "fare",
                                   (TimeRange("t", 2 * HOUR, 7 * HOUR),))
        qv = grid.viewport(1, 0, 0, 128, 128)
        assert cube.can_answer(query, grid.viewport(0, 0, 0, 256, 256))
        assert not cube.can_answer(query, qv)

    def test_answer_raises_outside_coverage(self, cube, simple_regions,
                                            grid):
        qv = grid.viewport(1, 96, 0, 64, 64)
        with pytest.raises(CubeError):
            cube.answer(simple_regions, _frags(simple_regions, qv),
                        _count_brush(), viewport=qv)


class TestEngineIntegration:
    def test_auto_serves_coarse_brush_from_cached_cube(self, brush_table,
                                                       simple_regions):
        engine = SpatialAggregationEngine(default_resolution=256)
        gv = engine.plan_grid_viewport(simple_regions, 256)
        base = gv.grid.viewport(0, 0, 0, 256, 256)
        query = _count_brush()
        built = engine.execute(brush_table, simple_regions, query,
                               method="tcube-raster", viewport=base)
        assert built.stats["tcube"]["built"]

        coarse = gv.grid.viewport(1, 0, 0, 128, 128)
        cube = find_answering_cube(engine.ctx, brush_table, query, coarse)
        assert cube is not None

        served = engine.execute(brush_table, simple_regions, query,
                                method="auto", viewport=coarse)
        assert served.method == "tcube-raster-join"
        assert served.stats["tcube"]["hit"]
        assert served.stats["tcube"]["reduced_levels"] == 1
        want = engine.execute(brush_table, simple_regions, query,
                              method="bounded", viewport=_plain(coarse))
        assert np.array_equal(served.values, want.values)
