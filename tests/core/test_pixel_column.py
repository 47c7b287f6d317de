"""Property suite: the cached per-grid pixel column against the float
transform.

An in-memory table with an execution context projects onto a grid
viewport from its cached base-pixel columns
(:meth:`~repro.core.pipeline.TableSource.pixel_columns`:
``floor((x - x0) / pw)`` as int64, computed once per (table, grid)),
shifting them by the viewport's level and offset, instead of running
``CanvasGrid.level_pixel`` on the floats of every pass.  The shifted
column must equal ``level_pixel`` bit for bit, and a sink must locate
every point identically from either, for points on cell edges and a ulp
either side of them, NaN and +-inf coordinates, points far outside the
window, negative ``col0`` / ``row0`` and levels 0-4.  With finite
coordinates (what a table admits) a whole point pass from the column
equals the float pass bitwise.
"""

from __future__ import annotations

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import SpatialAggregation, SpatialAggregationEngine
from repro.core.pipeline import Blocks, TableSource, Window, fill
from repro.core.pyramid import CanvasGrid
from repro.raster import Viewport
from repro.table import F, PointTable

SETTINGS = settings(deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])


@st.composite
def grids(draw) -> CanvasGrid:
    """An anchor and pixel size drawn so cell edges are inexact sums."""
    return CanvasGrid(draw(st.floats(-1e3, 1e3)), draw(st.floats(-1e3, 1e3)),
                      draw(st.sampled_from([0.1, 0.25, 1.0, 3.7, 1e-3])),
                      draw(st.sampled_from([0.1, 0.5, 1.0, 2.9, 7e-3])),
                      draw(st.sampled_from([4, 8, 16])))


def coordinates(gen, origin, size, n, special):
    """Points on cell edges, a ulp either side of them, uniform ones,
    far-off ones and, with ``special``, NaN and +-inf."""
    edges = origin + gen.integers(-70, 70, n) * size
    nudge = gen.integers(-1, 2, n)
    edges = np.where(nudge < 0, np.nextafter(edges, -np.inf),
                     np.where(nudge > 0, np.nextafter(edges, np.inf), edges))
    pool = [edges, origin + gen.uniform(-80, 80, n) * size,
            gen.choice([-1e12, 1e12], max(1, n // 8))]
    if special:
        pool.append(np.array([np.nan, np.inf, -np.inf]))
    values = np.concatenate(pool)
    return values[gen.permutation(len(values))[:n]]


def points(gen, grid, n, special):
    return (coordinates(gen, grid.x0, grid.pw, n, special),
            coordinates(gen, grid.y0, grid.ph, n, special))


def viewports(grid, gen):
    level = int(gen.integers(0, 5))
    return grid.viewport(level, int(gen.integers(-40, 40)),
                         int(gen.integers(-40, 40)),
                         int(gen.integers(1, 50)), int(gen.integers(1, 50)))


def sinks(viewport, gen):
    """The whole window, a tile of it and a block rectangle with a gap
    (an L-shaped delta), each at the viewport's level."""
    yield Window(viewport)
    tile_w = max(1, viewport.width // 2)
    tile_h = max(1, viewport.height // 2)
    tile = viewport.grid.viewport(viewport.level, viewport.col0 + tile_w,
                                  viewport.row0 + tile_h, tile_w, tile_h)
    yield Window(viewport, (tile, tile_w, tile_h))
    bx, by = (int(v) for v in gen.integers(-4, 4, 2))
    yield Blocks(viewport.grid, viewport.level,
                 [(bx, by), (bx + 1, by), (bx, by + 1)])


@SETTINGS
@given(grids(), st.integers(0, 2**32 - 1), st.booleans())
def test_shifted_column_equals_level_pixel(grid, seed, special):
    gen = np.random.default_rng(seed)
    x, y = points(gen, grid, 400, special)
    with np.errstate(invalid="ignore"):
        col, row = grid.level_pixel(x, y, 0)
        for level in range(5):
            want_c, want_r = grid.level_pixel(x, y, level)
            assert (col >> level).tobytes() == want_c.tobytes()
            assert (row >> level).tobytes() == want_r.tobytes()
        for _ in range(3):
            viewport = viewports(grid, gen)
            for sink in sinks(viewport, gen):
                pix, inside = sink.locate_columns(col, row)
                want_pix, want_inside = sink.locate(x, y)
                assert inside.tobytes() == want_inside.tobytes()
                assert pix.tobytes() == want_pix.tobytes()


@SETTINGS
@given(grids(), st.integers(0, 2**32 - 1), st.booleans())
def test_a_pass_from_the_column_equals_the_float_pass(grid, seed, filtered):
    gen = np.random.default_rng(seed)
    x, y = points(gen, grid, 600, special=False)
    table = PointTable.from_arrays(x, y, name="pixel-column",
                                   fare=gen.normal(5.0, 9.0, len(x)))
    query = SpatialAggregation("sum", "fare",
                               (F("fare") > 4.0,) if filtered else ())
    ctx = SpatialAggregationEngine().ctx
    cached = TableSource(table, ctx)
    for _ in range(3):
        viewport = viewports(grid, gen)
        for sink in sinks(viewport, gen):
            assert cached.pixel_columns(sink.viewport) is not None
            got = fill(cached, query, sink, ("count", "sum", "min"))
            want = fill(TableSource(table), query, sink,
                        ("count", "sum", "min"))
            assert got.points == want.points
            for kind, canvas in want.canvases.items():
                assert got.canvases[kind].tobytes() == canvas.tobytes()


def test_column_is_cached_once_per_table_and_grid():
    gen = np.random.default_rng(3)
    grid = CanvasGrid(0.0, 0.0, 0.5, 0.5, block=8)
    table = PointTable.from_arrays(gen.uniform(0, 40, 500),
                                   gen.uniform(0, 40, 500), name="pts")
    ctx = SpatialAggregationEngine().ctx
    first = TableSource(table, ctx).pixel_columns(grid.viewport(2, -3, 1,
                                                                9, 9))
    again = TableSource(table, ctx).pixel_columns(grid.viewport(0, 5, 5,
                                                                4, 4))
    assert again is first  # one entry per (table, grid), any level
    assert [k[0] for k in ctx.cache.keys()] == ["pixel-column"]
    assert ctx.cache.total_bytes >= first[0].nbytes + first[1].nbytes
    # Off a grid, or with no context to cache in: the float path.
    gv = grid.viewport(0, 0, 0, 4, 4)
    assert TableSource(table).pixel_columns(gv) is None
    plain = Viewport(bbox=gv.bbox, width=gv.width, height=gv.height)
    assert TableSource(table, ctx).pixel_columns(plain) is None
