"""The canvas pyramid: grid viewports, block assembly, and its parity
contract — assembled answers are bitwise-identical to the direct
bounded raster join for COUNT/SUM/MIN/MAX (AVG within reassociation
round-off) across pan/zoom ladders and under eviction.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import (
    GridViewport,
    SpatialAggregation,
    SpatialAggregationEngine,
    bounded_raster_join,
    grid_viewport_for,
)
from repro.core.cache import estimate_nbytes
from repro.core.parallel import ParallelConfig, parallel_bounded_raster_join
from repro.raster import Viewport
from repro.table import Between


def _plain(gv: GridViewport) -> Viewport:
    """The same window/resolution as ``gv``, without the grid identity
    — forces the direct (non-assembled) path."""
    return Viewport(bbox=gv.bbox, width=gv.width, height=gv.height)


def _ladder(gv: GridViewport):
    yield gv
    gv = gv.pan(48, 0)
    yield gv
    gv = gv.pan(0, -32)
    yield gv
    gv = gv.zoom(2.0)
    yield gv
    gv = gv.zoom(0.5)
    yield gv
    gv = gv.pan(-48, 32)
    yield gv  # revisits the second frame's window


def _warm(engine, table, regions, query, gv: GridViewport):
    """Cache every block of ``gv``: a first frame beside it runs direct,
    so ``gv`` is the family's viewport move and assembles."""
    engine.execute(table, regions, query, method="bounded",
                   viewport=gv.pan(1, 0))
    return engine.execute(table, regions, query, method="bounded",
                          viewport=gv)


def _assert_bitwise(a, b):
    np.testing.assert_array_equal(a.values, b.values)
    assert (a.lower is None) == (b.lower is None)
    if a.lower is not None:
        np.testing.assert_array_equal(a.lower, b.lower)
        np.testing.assert_array_equal(a.upper, b.upper)


# -- grid viewport semantics -------------------------------------------------


def test_grid_viewport_matches_plain_transform(small_table, simple_regions):
    engine = SpatialAggregationEngine(default_resolution=256)
    gv = engine.plan_grid_viewport(simple_regions, 256)
    plain = engine.plan_viewport(simple_regions, 256, None)
    ix_g, iy_g = gv.pixel_of(small_table.x, small_table.y)
    ix_p, iy_p = plain.pixel_of(small_table.x, small_table.y)
    np.testing.assert_array_equal(ix_g, ix_p)
    np.testing.assert_array_equal(iy_g, iy_p)


def test_pan_snaps_and_round_trips(simple_regions):
    engine = SpatialAggregationEngine(default_resolution=256)
    gv = engine.plan_grid_viewport(simple_regions, 256)
    there = gv.pan(10.4, -3.6)  # fractional gestures snap to pixels
    assert (there.col0, there.row0) == (gv.col0 + 10, gv.row0 - 4)
    back = there.pan(-10.4, 3.6)
    assert back == gv  # value-equal: identical cache keys


def test_zoom_snaps_to_levels_and_clamps(simple_regions):
    engine = SpatialAggregationEngine(default_resolution=256)
    gv = engine.plan_grid_viewport(simple_regions, 256)
    assert gv.level == 0
    out = gv.zoom(2.0)
    assert out.level == 1 and out.width == gv.width
    assert out.zoom(0.5).level == 0
    assert gv.zoom(0.5) == gv  # below the base level: clamped
    assert gv.zoom(1.2) == gv  # snaps to 2^0 == no-op
    with pytest.raises(ValueError):
        gv.zoom(0.0)


def test_grid_viewport_not_equal_to_plain_viewport(simple_regions):
    engine = SpatialAggregationEngine(default_resolution=128)
    gv = engine.plan_grid_viewport(simple_regions, 128)
    assert gv != _plain(gv)  # distinct cache identities
    assert grid_viewport_for(gv) is gv


def test_plan_grid_viewport_is_deterministic(simple_regions):
    a = SpatialAggregationEngine().plan_grid_viewport(simple_regions, 256)
    b = SpatialAggregationEngine().plan_grid_viewport(simple_regions, 256)
    assert a == b and hash(a) == hash(b)


# -- assembled vs direct: the bitwise-parity ladder --------------------------


@pytest.mark.parametrize("make_query", [
    lambda: SpatialAggregation.count(),
    lambda: SpatialAggregation.sum_of("fare"),
    lambda: SpatialAggregation.min_of("fare"),
    lambda: SpatialAggregation.max_of("fare"),
    lambda: SpatialAggregation.count(Between("fare", 5, 25)),
], ids=["count", "sum", "min", "max", "count-filtered"])
def test_panzoom_ladder_bitwise(small_table, simple_regions, make_query):
    query = make_query()
    engine = SpatialAggregationEngine(default_resolution=256)
    gv0 = engine.plan_grid_viewport(simple_regions, 256)
    for gv in _ladder(gv0):
        assembled = engine.execute(small_table, simple_regions, query,
                                   method="bounded", viewport=gv)
        assert assembled.method == "pyramid-raster-join"
        direct = bounded_raster_join(small_table, simple_regions, query,
                                     _plain(gv))
        _assert_bitwise(assembled, direct)


def test_avg_ladder_within_roundoff(small_table, simple_regions):
    query = SpatialAggregation.avg_of("fare")
    engine = SpatialAggregationEngine(default_resolution=256)
    gv0 = engine.plan_grid_viewport(simple_regions, 256)
    for gv in _ladder(gv0):
        assembled = engine.execute(small_table, simple_regions, query,
                                   method="bounded", viewport=gv)
        direct = bounded_raster_join(small_table, simple_regions, query,
                                     _plain(gv))
        np.testing.assert_allclose(assembled.values, direct.values,
                                   rtol=0, atol=1e-12)


def test_tiled_method_routes_to_assembly(small_table, simple_regions):
    engine = SpatialAggregationEngine(default_resolution=256)
    gv = engine.plan_grid_viewport(simple_regions, 256)
    query = SpatialAggregation.count()
    result = engine.execute(small_table, simple_regions, query,
                            method="tiled", viewport=gv)
    assert result.method == "pyramid-raster-join"
    direct = bounded_raster_join(small_table, simple_regions, query,
                                 _plain(gv))
    _assert_bitwise(result, direct)


def test_parallel_direct_matches_assembled_count(small_table,
                                                 simple_regions):
    engine = SpatialAggregationEngine(default_resolution=256)
    gv = engine.plan_grid_viewport(simple_regions, 256)
    query = SpatialAggregation.count()
    assembled = engine.execute(small_table, simple_regions, query,
                               method="bounded", viewport=gv)
    par = parallel_bounded_raster_join(
        small_table, simple_regions, query, _plain(gv),
        config=ParallelConfig(workers=2, serial_threshold=1))
    _assert_bitwise(assembled, par)


# -- reuse accounting --------------------------------------------------------


def test_warm_gesture_reuses_blocks(small_table, simple_regions):
    engine = SpatialAggregationEngine(default_resolution=256)
    gv = engine.plan_grid_viewport(simple_regions, 256)
    query = SpatialAggregation.count()
    first = engine.execute(small_table, simple_regions, query,
                           method="bounded", viewport=gv)
    # A first sighting runs one direct pass and installs no block.
    assert first.method == "pyramid-raster-join"
    assert first.stats["pyramid"]["path"] == "direct"
    assert first.stats["cache"]["blocks"]["misses"] == 0
    assert not [k for k in engine.ctx.cache.keys() if k[0] == "canvas-block"]

    moved = engine.execute(small_table, simple_regions, query,
                           method="bounded", viewport=gv.pan(32, 0))
    cold_blocks = moved.stats["cache"]["blocks"]
    assert moved.stats["pyramid"]["path"] == "assembled"
    assert cold_blocks["misses"] > 0 and cold_blocks["hits"] == 0
    assert cold_blocks["reuse_fraction"] == 0.0

    warm = engine.execute(small_table, simple_regions, query,
                          method="bounded", viewport=gv.pan(16, 0))
    blocks = warm.stats["cache"]["blocks"]
    assert blocks["hits"] > 0
    assert 0.0 < blocks["reuse_fraction"] <= 1.0
    assert blocks["assembled_pixels"] > blocks["scattered_pixels"]
    assert warm.stats["pyramid"]["reuse_fraction"] == \
        blocks["reuse_fraction"]


def test_zoom_out_derives_from_children(small_table, simple_regions):
    engine = SpatialAggregationEngine(default_resolution=256)
    gv = engine.plan_grid_viewport(simple_regions, 256)
    query = SpatialAggregation.count()
    _warm(engine, small_table, simple_regions, query, gv)
    out = engine.execute(small_table, simple_regions, query,
                         method="bounded", viewport=gv.zoom(2.0))
    assert out.stats["cache"]["blocks"]["derived"] > 0
    direct = bounded_raster_join(small_table, simple_regions, query,
                                 _plain(gv.zoom(2.0)))
    _assert_bitwise(out, direct)


def test_planner_prices_block_coverage(small_table, simple_regions):
    engine = SpatialAggregationEngine(default_resolution=256)
    gv = engine.plan_grid_viewport(simple_regions, 256)
    query = SpatialAggregation.count()
    cold = engine.execute(small_table, simple_regions, query,
                          method="auto", viewport=gv)
    assert cold.stats["plan"]["inputs"]["blocks_cached"] == 0.0
    _warm(engine, small_table, simple_regions, query, gv)
    warm = engine.execute(small_table, simple_regions, query,
                          method="auto", viewport=gv, cache=False)
    inputs = warm.stats["plan"]["inputs"]
    assert inputs["blocks_cached"] == 1.0
    costs = warm.stats["plan"]["decision"]["costs"]
    assert warm.stats["plan"]["decision"]["chosen"] == "bounded"
    # full coverage wipes the point-pass term from the bounded price
    assert costs["bounded"] < len(small_table)


def test_integral_sum_blocks_derive_on_zoom_out(simple_regions):
    gen = np.random.default_rng(5)
    from repro.table import PointTable
    n = 20_000
    table = PointTable.from_arrays(
        gen.uniform(0, 100, n), gen.uniform(0, 100, n), name="ints",
        riders=gen.integers(1, 7, n).astype(np.float64))
    query = SpatialAggregation.sum_of("riders")
    engine = SpatialAggregationEngine(default_resolution=256)
    gv = engine.plan_grid_viewport(simple_regions, 256)
    _warm(engine, table, simple_regions, query, gv)
    out = engine.execute(table, simple_regions, query,
                         method="bounded", viewport=gv.zoom(2.0))
    assert out.stats["cache"]["blocks"]["derived"] > 0
    direct = bounded_raster_join(table, simple_regions, query,
                                 _plain(gv.zoom(2.0)))
    _assert_bitwise(out, direct)


# -- eviction (the stale-ancestor regression) -------------------------------


def test_eviction_leaves_coarse_frame_exact(simple_regions):
    """Evict level-0 blocks under byte pressure, leaving their derived
    coarser ancestors resident: the coarse frame, served from whatever
    survives plus a re-scatter of the rest, must still equal the direct
    join bitwise.
    """
    from repro.table import PointTable

    gen = np.random.default_rng(17)
    n = 30_000
    x = gen.uniform(0, 100, n)
    y = gen.uniform(0, 100, n)
    table = PointTable.from_arrays(x, y, name="gen-test")

    engine = SpatialAggregationEngine(default_resolution=256,
                                      cache_max_bytes=24 * 1024 * 1024)
    cache = engine.ctx.cache
    gv = engine.plan_grid_viewport(simple_regions, 256)
    query = SpatialAggregation.count()
    engine.execute(table, simple_regions, query,
                   method="bounded", viewport=gv)
    coarse = gv.zoom(2.0)
    engine.execute(table, simple_regions, query,
                   method="bounded", viewport=coarse)

    # Age the level-0 blocks to the cold end of the LRU, then squeeze
    # until evictions happen.  The coarser ancestors were touched last,
    # so whatever survives skews to them.
    evictions_before = cache.evictions
    for i in range(20):
        cache.put(("junk", i), np.zeros(1 << 18))
    assert cache.evictions > evictions_before

    after = engine.execute(table, simple_regions, query,
                           method="bounded", viewport=coarse)
    direct = bounded_raster_join(table, simple_regions, query,
                                 _plain(coarse))
    _assert_bitwise(after, direct)


# -- estimate_nbytes view dedup (the cache-accounting fix) -------------------


def test_estimate_nbytes_charges_shared_base_once():
    base = np.zeros(10_000)
    v1, v2 = base[:4_000], base[4_000:]
    assert estimate_nbytes(base) == base.nbytes
    # Views sharing one buffer are charged once, not once per view.
    assert estimate_nbytes([base, v1, v2]) == base.nbytes
    assert estimate_nbytes((v1, v2)) == base.nbytes
    assert estimate_nbytes({"a": base, "b": base[::2]}) == base.nbytes


def test_estimate_nbytes_distinct_buffers_still_add():
    a, b = np.zeros(1_000), np.zeros(2_000)
    assert estimate_nbytes([a, b]) == a.nbytes + b.nbytes
    # A view chain walks to its root buffer.
    chained = a[:500][10:]
    assert estimate_nbytes([a, chained]) == a.nbytes
