"""Differential suite: pyramid-assembled frames against the direct join.

Hypothesis draws a clustered table — NaN fares, points a ulp either
side of block edges, points far off the grid — a planned
:class:`~repro.core.GridViewport` on a drawn block size, and a gesture
sequence over it: pans (diagonal ones leave an L-shaped block delta),
zooms out and back in, and stays on the frame.  Each step draws an
aggregate (every one), with or without a ``fare >`` filter, and the
cache state it meets: kept warm, cleared cold, or squeezed by a byte
budget a few blocks large so blocks are evicted between frames.

Every frame the engine executes must equal the bounded raster join
run directly on the same viewport: estimate, ``lower`` and ``upper``
bitwise for COUNT/SUM/MIN/MAX, AVG within 1e-12.  The direct join uses
the grid viewport itself as its canvas (its transform, none of its
blocks): a plain ``Viewport`` over the same bbox re-derives the pixel
size, and would bin a point one ulp from a block edge by other float
operations than either path of the engine.

Across the examples the table source must take both of its branches —
the row-order scan and the grid-index gather — which the ``scatter``
span's ``narrowed`` attribute reports.
"""

from __future__ import annotations

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import (
    SpatialAggregation,
    SpatialAggregationEngine,
    bounded_raster_join,
    grid_viewport_for,
)
from repro.obs import Tracer, disable, enable
from repro.obs.trace import enabled
from repro.table import F, PointTable

AGGS = (("count", None), ("sum", "fare"), ("avg", "fare"),
        ("min", "fare"), ("max", "fare"))
FILTERS = ((), (F("fare") > 4.0,), (F("fare") > 9.5,))

SETTINGS = settings(deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])


@st.composite
def scenes(draw):
    """A block size, a planned resolution and the table's seed."""
    block = draw(st.sampled_from([8, 16, 32]))
    resolution = draw(st.sampled_from([40, 64, 96]))
    return block, resolution, draw(st.integers(0, 2**32 - 1))


def make_table(viewport, seed) -> PointTable:
    gen = np.random.default_rng(seed)
    n_clusters = int(gen.integers(1, 5))
    centers = gen.uniform(-50, 150, (n_clusters, 2))
    sizes = gen.integers(1, 400, n_clusters)
    spread = gen.choice([0.05, 0.5, 3.0, 15.0], n_clusters)
    xs = [gen.normal(c[0], s, k) for c, s, k in zip(centers, spread, sizes)]
    ys = [gen.normal(c[1], s, k) for c, s, k in zip(centers, spread, sizes)]
    # Hot spots: many points on one spot, so a pixel's fold order shows.
    spots = gen.uniform(-10, 110, (int(gen.integers(1, 30)), 2))
    pick = spots[gen.integers(0, len(spots), int(gen.integers(0, 600)))]
    xs.append(pick[:, 0])
    ys.append(pick[:, 1])
    # A ulp either side of (and on) the block edges, and far off-grid.
    grid = viewport.grid
    edges = int(gen.integers(0, 60))
    cols = gen.integers(-2, 8, edges) * grid.block
    rows = gen.integers(-2, 8, edges) * grid.block
    ex = grid.x0 + cols * grid.pw
    ey = grid.y0 + rows * grid.ph
    nudge = gen.integers(-1, 2, (2, edges))
    ex = np.where(nudge[0] < 0, np.nextafter(ex, -np.inf),
                  np.where(nudge[0] > 0, np.nextafter(ex, np.inf), ex))
    ey = np.where(nudge[1] < 0, np.nextafter(ey, -np.inf),
                  np.where(nudge[1] > 0, np.nextafter(ey, np.inf), ey))
    # Far points stretch the grid index's envelope until its cells
    # count every box as the whole table: then it never narrows.
    far = int(gen.integers(1, 20)) if gen.random() < 0.3 else 0
    xs += [ex, gen.choice([-1e6, 1e6], far)]
    ys += [ey, gen.uniform(-1e6, 1e6, far)]
    x = np.concatenate(xs)
    y = np.concatenate(ys)
    kind = gen.integers(0, 3)
    if kind == 0:  # integral fares: coarse SUM blocks derive
        fare = np.floor(gen.normal(6.0, 5.0, len(x)))
    else:  # magnitudes that make every sum's order show in its bits
        fare = gen.normal(6.0, 5.0, len(x)) * 10.0 ** gen.uniform(
            -3, 6, len(x))
    if kind == 2:  # NaN poisons its pixel (and hides the order)
        fare[gen.random(len(x)) < 0.02] = np.nan
    return PointTable.from_arrays(x, y, name="pyramid-diff", fare=fare)


gestures = st.one_of(
    st.tuples(st.just("pan"), st.integers(-48, 48), st.integers(-48, 48)),
    st.tuples(st.just("zoom"), st.sampled_from([2.0, 0.5])),
    st.tuples(st.just("stay")),
)

queries = st.tuples(st.sampled_from(AGGS), st.sampled_from(FILTERS))

#: A step moves the map, keeps the query (its blocks stay reusable) or
#: switches it, and meets a warm or a cleared cache.
steps = st.tuples(gestures,
                  st.one_of(st.none(), st.none(), queries),
                  st.sampled_from(["warm", "warm", "cold"]))


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
            assert a.tobytes() == b.tobytes(), name


def run_frame(engine, table, regions, query, viewport) -> tuple:
    """Execute one frame traced; its result and the ``narrowed``
    attribute of its ``scatter`` span (None when nothing scattered).
    Stored answers are dropped first, so a repeated frame is assembled
    again rather than served by the answer tier."""
    engine.ctx.cache.invalidate("answer")
    root = Tracer().start("frame")
    with root:
        result = engine.execute(table, regions, query, method="bounded",
                                viewport=viewport)
    narrowed = [n["attrs"]["narrowed"] for n in _walk(root.to_dict())
                if n["name"] == "scatter"]
    assert len(narrowed) <= 1
    return result, (narrowed[0] if narrowed else None)


def _walk(node):
    yield node
    for child in node.get("children") or []:
        yield from _walk(child)


def test_assembled_frames_equal_the_direct_join(simple_regions):
    branches = set()

    @SETTINGS
    @given(scenes(), st.sampled_from([None, 48_000]), queries,
           st.lists(steps, min_size=1, max_size=8))
    def check(scene, budget, first, script):
        block, resolution, seed = scene
        engine = (SpatialAggregationEngine() if budget is None else
                  SpatialAggregationEngine(cache_max_bytes=budget))
        viewport = grid_viewport_for(
            engine.plan_viewport(simple_regions, resolution, None), block)
        table = make_table(viewport, seed)
        (agg, column), filters = first
        for gesture, switch, cache in script:
            if switch is not None:
                (agg, column), filters = switch
            if gesture[0] == "pan":
                viewport = viewport.pan(gesture[1], gesture[2])
            elif gesture[0] == "zoom":
                viewport = viewport.zoom(gesture[1])
            if cache == "cold":
                engine.clear_caches()
            query = SpatialAggregation(agg, column, filters)
            got, narrowed = run_frame(engine, table, simple_regions, query,
                                      viewport)
            assert got.method == "pyramid-raster-join"
            branches.add(narrowed)
            want = bounded_raster_join(table, simple_regions, query,
                                       viewport)
            assert_match(got, want, agg)

    was_enabled = enabled()
    try:
        check()
    finally:
        (enable if was_enabled else disable)()
    assert {True, False} <= branches, branches
