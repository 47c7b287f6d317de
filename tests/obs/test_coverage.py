"""Instrumentation completeness: a cold grid-viewport store query —
one pass over the partitions fills every missing pyramid block — must
explain >=90% of its wall time, the block scatter included."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import (
    SpatialAggregation,
    build_temporal_canvas_cube,
    SpatialAggregationEngine,
    accurate_raster_join,
)
from repro.data import generate_taxi_trips
from repro.obs import Tracer, render
from repro.obs.trace import leaf_coverage
from repro.raster import Viewport, build_fragment_table
from repro.raster.fragments import polygon_pass
from repro.store import build_store
from repro.table import F, TimeRange

from tests.store.conftest import HOUR, make_store_table


@pytest.fixture(scope="module")
def traced_store(tmp_path_factory):
    table = make_store_table(30_000, seed=7)
    path = tmp_path_factory.mktemp("obs-store") / "pts"
    return build_store(table, path, partition_rows=1_024, grid=4,
                       time_column="t", time_bucket_seconds=2 * HOUR)


def _walk(node, out):
    out.append(node)
    for child in node.get("children") or []:
        _walk(child, out)
    return out


def test_cold_store_pyramid_trace_covers_wall_time(traced_store,
                                                   simple_regions):
    engine = SpatialAggregationEngine(default_resolution=256)
    gv = engine.plan_grid_viewport(simple_regions, 256)
    # Warm one-time costs (partition mounts, fragments, canvas grids) so
    # the traced query measures steady-state execution: fares are >= 0,
    # so this filter prunes no partition and every one gets mounted.
    # The traced query's different filter keeps its blocks cold, so
    # every one of them is scattered.
    engine.execute(traced_store, simple_regions,
                   SpatialAggregation.count(F("fare") >= 0), viewport=gv)

    root = Tracer().start("query")
    with root:
        result = engine.execute(traced_store, simple_regions,
                                SpatialAggregation.count(F("fare") > 5),
                                viewport=gv)
    tree = root.to_dict()

    nodes = _walk(tree, [])
    names = {n["name"] for n in nodes}
    assert {"store.execute", "store.prune", "pyramid.assemble",
            "scatter"} <= names

    # One scatter span for the whole frame, attributed.
    scatters = [n for n in nodes if n["name"] == "scatter"]
    assert len(scatters) == 1
    pyramid = result.stats["pyramid"]
    assert scatters[0]["attrs"] == {
        "blocks": pyramid["scattered"],
        "partitions": result.stats["store"]["partitions_paged"],
        "points": pyramid["points_scattered"]}
    assert pyramid["scattered"] == pyramid["blocks"] > 0

    coverage = leaf_coverage(tree)
    assert coverage >= 0.9, f"coverage {coverage:.2f}\n{render(tree)}"


def test_pyramid_scatter_says_whether_the_table_was_narrowed(
        simple_regions):
    """A first frame runs direct, in row order; the first move's blocks
    hold the whole table, so their scatter scans it in row order too; a
    one-block-column pan's delta holds a sliver, so the scatter gathers
    it through the grid index."""
    engine = SpatialAggregationEngine(default_resolution=256)
    table = make_store_table(30_000, seed=5)
    query = SpatialAggregation.count(F("fare") > 5)
    gv = engine.plan_grid_viewport(simple_regions, 256)

    def scatter_attrs(viewport):
        root = Tracer().start("query")
        with root:
            engine.execute(table, simple_regions, query, method="bounded",
                           viewport=viewport)
        scatters = [n for n in _walk(root.to_dict(), [])
                    if n["name"] == "scatter"]
        assert len(scatters) == 1
        return scatters[0]["attrs"]

    assert scatter_attrs(gv) == {"narrowed": False}
    side = gv.grid.block
    cold = scatter_attrs(gv.pan(side, 0))
    assert cold["narrowed"] is False
    assert cold["points"] > 0
    pan = scatter_attrs(gv.pan(2 * side, 0))
    assert pan["narrowed"] is True
    assert pan["blocks"] == -(-gv.height // side)


def test_direct_scatter_says_whether_the_time_brush_was_sliced(
        simple_regions):
    """A first sighting's direct scatter carries ``sliced``: True for a
    time brush on a sorted column (a row slice, no mask over the
    table), False on an unsorted one, absent without a time brush."""
    engine = SpatialAggregationEngine(default_resolution=256)
    shuffled = make_store_table(30_000, seed=5)
    order = np.argsort(shuffled.column("t").values, kind="stable")
    ordered = shuffled.take(order)
    gv = engine.plan_grid_viewport(simple_regions, 256)

    def scatter_attrs(table, *filters):
        root = Tracer().start("query")
        with root:
            result = engine.execute(
                table, simple_regions,
                SpatialAggregation.count(F("fare") > 5, *filters),
                method="bounded", viewport=gv)
        assert result.stats["pyramid"]["path"] == "direct"
        scatters = [n for n in _walk(root.to_dict(), [])
                    if n["name"] == "scatter"]
        assert len(scatters) == 1
        return scatters[0]["attrs"]

    brush = TimeRange("t", HOUR, 2 * HOUR)
    assert scatter_attrs(ordered, brush) == {"narrowed": False,
                                             "sliced": True}
    assert scatter_attrs(shuffled, brush) == {"narrowed": False,
                                              "sliced": False}
    assert scatter_attrs(ordered) == {"narrowed": False}


def test_a_frame_that_skips_the_block_tier_says_so(simple_regions):
    """A first sighting on a grid viewport runs direct: its
    ``backend.run`` span carries ``pyramid="direct"`` and no
    ``pyramid.assemble`` opens.  The move that follows assembles, and
    the session log's block columns, read from the stats, show no block
    traffic for the direct frame and the reuse of the assembled ones."""
    from repro.urbane.session import Interaction

    engine = SpatialAggregationEngine(default_resolution=256)
    table = make_store_table(30_000, seed=5)
    query = SpatialAggregation.count(F("fare") > 5)
    gv = engine.plan_grid_viewport(simple_regions, 256)

    def traced(viewport):
        root = Tracer().start("query")
        with root:
            result = engine.execute(table, simple_regions, query,
                                    method="bounded", viewport=viewport)
        spans = {n["name"]: n["attrs"] for n in _walk(root.to_dict(), [])}
        row = Interaction.from_stats("pan", "", 0.0, result.stats,
                                     result.method)
        return spans, row

    spans, direct = traced(gv)
    assert spans["backend.run"] == {"backend": "bounded",
                                    "pyramid": "direct"}
    assert "pyramid.assemble" not in spans and "scatter" in spans
    assert (direct.block_hits, direct.block_misses,
            direct.block_reuse) == (0, 0, 0.0)

    spans, moved = traced(gv.pan(gv.grid.block, 0))
    assert spans["backend.run"] == {"backend": "bounded"}
    assert spans["pyramid.assemble"]["scattered"] > 0
    assert moved.block_misses > 0 and moved.block_reuse == 0.0

    __, further = traced(gv.pan(2 * gv.grid.block, 0))  # one new column
    assert further.block_hits == further.block_misses > 0
    assert further.block_reuse == 0.5


def test_untraced_query_records_nothing(traced_store, simple_regions):
    from repro.obs import current_span

    engine = SpatialAggregationEngine(default_resolution=256)
    result = engine.execute(
        traced_store, simple_regions,
        SpatialAggregation.count(F("fare") > 40),
        viewport=engine.plan_grid_viewport(simple_regions, 256))
    assert current_span() is None
    # No trace payload leaks into untraced response stats.
    assert "trace" not in result.stats


def test_cold_bounded_query_charges_build_to_fragments_span(city_regions):
    """The ``fragments`` span wraps the polygon pass itself (inside
    ``ExecutionContext.fragments_for``), so a cold query's build is not
    ``backend.run`` self time.  40 Voronoi regions @ 512 px: the batched
    polygon pass (~8 ms) still dwarfs the backend's own bookkeeping
    (~0.3 ms); scatter and gather have their own spans.  The span counts
    the on-screen (edge, row) pairs, the unit the pass's cost follows."""
    engine = SpatialAggregationEngine(default_resolution=512)
    table = make_store_table(5_000, seed=3)
    root = Tracer().start("query")
    with root:
        engine.execute(table, city_regions, SpatialAggregation.count(),
                       method="bounded")
    nodes = _walk(root.to_dict(), [])
    run = next(n for n in nodes if n["name"] == "backend.run")
    fragments = [n for n in run["children"] if n["name"] == "fragments"]
    assert len(fragments) == 1
    viewport = engine.plan_viewport(city_regions, 512, None)
    intervals = engine.fragments_for(city_regions, viewport).intervals
    _, edge_rows = polygon_pass(list(city_regions.geometries), viewport)
    assert fragments[0]["attrs"] == {
        "regions": len(city_regions),
        "pixels": viewport.num_pixels,
        "runs": intervals.num_full_runs + intervals.num_partial_runs,
        "edge_rows": edge_rows}
    assert 0 < edge_rows < viewport.num_pixels
    self_s = run["wall_s"] - sum(c["wall_s"] for c in run["children"])
    assert fragments[0]["wall_s"] > self_s, render(root)

    # Warm: the table comes from the cache and no span is opened.
    root = Tracer().start("query")
    with root:
        engine.execute(table, city_regions, SpatialAggregation.count(),
                       method="bounded")
    assert "fragments" not in {n["name"] for n in _walk(root.to_dict(), [])}


def test_accurate_join_names_its_time(city, city_regions):
    """A cold accurate op splits its time into the polygon pass, the
    point pass, the run gather and the refine; the refine span carries
    the counts ``stats["accurate"]`` reports."""
    engine = SpatialAggregationEngine(default_resolution=512)
    table = generate_taxi_trips(city, 20_000, seed=3)
    query = SpatialAggregation.sum_of("fare")
    root = Tracer().start("query")
    with root:
        result = engine.execute(table, city_regions, query,
                                method="accurate")
    run = next(n for n in _walk(root.to_dict(), [])
               if n["name"] == "backend.run")
    assert [c["name"] for c in run["children"]] == [
        "fragments", "scatter", "gather", "refine"]
    acc = result.stats["accurate"]
    assert acc["pairs"] > 0
    assert run["children"][3]["attrs"] == {
        key: acc[key] for key in ("candidates", "pairs", "edges_tested")}

    # Called directly without a table, the join opens ``fragments``
    # around its own build.
    viewport = engine.plan_viewport(city_regions, 512, None)
    root = Tracer().start("query")
    with root:
        accurate_raster_join(table, city_regions, query, viewport)
    assert [c["name"] for c in root.to_dict()["children"]] == [
        "fragments", "scatter", "gather", "refine"]


def test_tcube_build_and_answer_spans(city, city_regions):
    """A building brush splits its time into ``tcube.build`` (the point
    pipeline's ``scatter``, then the prefix sum along time) and
    ``tcube.answer``; the next brush on the same cube opens only
    ``tcube.answer``."""
    from repro.data.temporal import DEFAULT_EPOCH

    day = 86_400
    engine = SpatialAggregationEngine(default_resolution=512)
    table = generate_taxi_trips(city, 60_000, seed=3)
    # Warm the polygon pass and the residual filter's mask: the build
    # reuses the mask the engine cached for the unbrushed view.
    engine.execute(table, city_regions,
                   SpatialAggregation.sum_of("fare", F("fare") > 5),
                   method="bounded")

    def brush(lo, hi):
        query = SpatialAggregation.sum_of("fare", F("fare") > 5).during(
            "t", DEFAULT_EPOCH + lo * day, DEFAULT_EPOCH + hi * day)
        root = Tracer().start("query")
        with root:
            result = engine.execute(table, city_regions, query,
                                    method="tcube-raster")
        tree = root.to_dict()
        run = next(n for n in _walk(tree, [])
                   if n["name"] == "backend.run")
        return tree, run, result.stats["tcube"]

    tree, run, stats = brush(2, 9)
    assert stats["built"]
    assert [c["name"] for c in run["children"]] == [
        "tcube.build", "tcube.answer"]
    build, answer = run["children"]
    assert build["attrs"] == {
        "points": stats["build"]["points_in_cube"],
        "buckets": stats["build"]["buckets"],
        "active_pixels": stats["build"]["active_pixels"]}
    assert [c["name"] for c in build["children"]] == [
        "scatter", "tcube.prefix"]
    assert answer["attrs"] == {"slices_touched": 7, "reduced_levels": 0}
    coverage = leaf_coverage(tree)
    assert coverage >= 0.9, f"coverage {coverage:.2f}\n{render(tree)}"

    tree, run, stats = brush(10, 13)
    assert stats["hit"]
    assert [c["name"] for c in run["children"]] == ["tcube.answer"]
    assert run["children"][0]["attrs"] == {"slices_touched": 3,
                                           "reduced_levels": 0}


def test_tcube_rows_span_names_the_lazy_gather(city, city_regions):
    """A cube brush whose bucket edges were never gathered opens one
    ``tcube.rows`` span under ``tcube.answer``, its ``rows`` the rows
    gathered; a brush on gathered edges opens none, and one new edge
    gathers half as many rows."""
    from repro.data.temporal import DEFAULT_EPOCH

    day = 86_400
    table = generate_taxi_trips(city, 20_000, seed=5)
    viewport = Viewport.fit(city_regions.bbox, 256)
    fragments = build_fragment_table(list(city_regions.geometries), viewport)
    cube = build_temporal_canvas_cube(table, viewport, "t", day,
                                      value_column="fare")

    def brush(lo, hi):
        query = SpatialAggregation.sum_of("fare").during(
            "t", DEFAULT_EPOCH + lo * day, DEFAULT_EPOCH + hi * day)
        root = Tracer().start("query")
        with root:
            cube.answer(city_regions, fragments, query)
        answer, = root.to_dict()["children"]
        assert answer["name"] == "tcube.answer"
        return [(c["name"], c["attrs"]) for c in answer.get("children")
                or []]

    # SUM of a non-negative column: full, covered and PARTIAL rows of
    # the sum plane (which doubles as the mass plane) at both edges.
    assert brush(2, 9) == [("tcube.rows", {"rows": 6})]
    assert brush(2, 9) == []
    assert brush(9, 12) == [("tcube.rows", {"rows": 3})]


def test_answer_hit_span_covers_a_hit(city, city_regions):
    """From a request's second sighting on, the answer tier serves it:
    the hit's trace is one ``answer.hit`` span (lookup, result wrapper
    and stats) with no planning or backend below it, and it covers most
    of the hit's execute.  A miss opens no ``answer.hit`` span."""
    engine = SpatialAggregationEngine(default_resolution=512)
    table = generate_taxi_trips(city, 20_000, seed=3)
    query = SpatialAggregation.sum_of("fare")

    def traced():
        root = Tracer().start("query")
        with root:
            result = engine.execute(table, city_regions, query)
        return root.to_dict(), result

    tree, result = traced()
    assert [c["name"] for c in tree["children"]] == ["plan", "backend.run"]
    coverage = []
    for _ in range(5):
        tree, result = traced()
        assert result.stats["answer"] == {"hit": True}
        assert [c["name"] for c in tree["children"]] == ["answer.hit"]
        assert not tree["children"][0]["children"]
        coverage.append(leaf_coverage(tree))
    # Best of five: a hit takes tens of microseconds, so one scheduler
    # hiccup outside the span must not decide the check.
    assert max(coverage) >= 0.4, f"coverage {coverage}\n{render(tree)}"
