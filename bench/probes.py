"""Layer probes: direct, timed calls into each layer's public functions.

Every probe runs on inputs drawn from the workload that is being
traced (its table, its region levels, its resolutions), is recorded as
a bench span named ``probe.<metric>``, and reports the median of its
repetitions.  Probes run after the measured laps, on engines of their
own, so they never disturb the counters the laps produced.

A metric a probe cannot measure on this machine or this workload is
reported as ``None`` with a reason (see :class:`Probes.reasons`).
"""

from __future__ import annotations

import json
import os
import statistics
import time

import numpy as np

from repro.core import (
    ExecutionPlan,
    ParallelConfig,
    QueryCache,
    SpatialAggregation,
    SpatialAggregationEngine,
    accurate_raster_join,
    assembled_bounded_join,
    bounded_raster_join,
    build_temporal_canvas_cube,
    parallel_bounded_raster_join,
)
from repro.raster import build_fragment_table, gather_sum, scatter_count, scatter_sum
from repro.serve.protocol import (
    decode_request,
    encode_request,
    result_from_json,
    result_to_json,
)
from repro.table import F, TimeRange

from .inputs import DAY, rng_for


class Probes:
    """Runs the probe suite for one workload; fills ``values``."""

    def __init__(self, workload, spans, reps: int):
        self.w = workload
        self.spans = spans
        self.reps = reps
        self.values: dict[str, float | None] = {}
        self.reasons: dict[str, str] = {}
        self.nproc = os.cpu_count() or 1

    def timed(self, name: str, fn, reps: int | None = None):
        """Median seconds of ``fn()`` over ``reps`` runs + last result."""
        times = []
        result = None
        for _ in range(reps or self.reps):
            with self.spans.span(f"probe.{name}"):
                t0 = time.perf_counter()
                result = fn()
                times.append(time.perf_counter() - t0)
        return statistics.median(times), result

    def skip(self, names, reason: str) -> None:
        for name in names:
            self.values[name] = None
            self.reasons[name] = reason

    # -- the suite ---------------------------------------------------------

    def run(self) -> None:
        w = self.w
        table = w.inputs.table
        rng = rng_for(w.seed, "probes")
        thresholds = [round(float(t), 3) for t in rng.uniform(2.0, 20.0, 3)]
        queries = [
            SpatialAggregation("count", None, (F("fare") > thresholds[0],)),
            SpatialAggregation("sum", "tip", (F("fare") > thresholds[1],)),
            SpatialAggregation("avg", "fare", (F("fare") > thresholds[2],)),
        ]
        engine = SpatialAggregationEngine()
        levels = w.probe_levels()
        level, resolution = levels[0]
        regions = w.inputs.regions[level]
        viewport = engine.plan_viewport(regions, resolution, None)

        self.table_probes(table, queries)
        fragments = self.raster_probes(engine, levels)
        self.kernel_probes(table, viewport, fragments)
        self.join_probes(table, regions, queries, viewport, fragments)
        self.planner_probes(engine, table, regions, queries[0], resolution)
        self.cache_probes(fragments)
        self.pyramid_probes(table, regions, queries, resolution)
        self.tcube_probes(table, regions, viewport, fragments)
        self.parallel_probes(table, regions, queries[1], viewport, fragments)
        self.protocol_probes(table, regions, queries[1], viewport, fragments)

    def table_probes(self, table, queries) -> None:
        times, selected = [], []
        for query in queries:
            seconds, mask = self.timed("table.filter_mask",
                                       lambda q=query: q.filter_mask(table))
            times.append(seconds)
            selected.append(float(np.mean(mask)))
        self.values["table.filter_mask_ms"] = statistics.median(times) * 1e3
        self.values["table.selected_frac"] = statistics.median(selected)

    def raster_probes(self, engine, levels):
        """One fragment build per (level, resolution) the script
        renders; returns the first pair's table for the later probes."""
        times, tables = [], []
        for level, resolution in levels:
            regions = self.w.inputs.regions[level]
            viewport = engine.plan_viewport(regions, resolution, None)
            seconds, fragments = self.timed(
                "raster.fragment_build",
                lambda r=regions, v=viewport: build_fragment_table(
                    list(r.geometries), v), reps=1)
            times.append(seconds)
            tables.append(fragments)
        self.values["raster.fragment_build_ms"] = \
            statistics.median(times) * 1e3
        self.values["raster.fragments"] = sum(
            t.num_interior_fragments + t.num_boundary_fragments
            for t in tables)
        self.values["raster.interval_runs"] = sum(
            t.intervals.num_full_runs + t.intervals.num_partial_runs
            for t in tables)
        return tables[0]

    def kernel_probes(self, table, viewport, fragments) -> None:
        pixel_ids, valid = viewport.pixel_ids_of(table.x, table.y)
        pixel_ids = pixel_ids[valid]
        weights = table.column("fare").values.astype(
            np.float64, copy=False)[valid]
        n = viewport.num_pixels
        t_count, canvas = self.timed(
            "kernels.scatter", lambda: scatter_count(pixel_ids, n))
        t_sum, _ = self.timed(
            "kernels.scatter", lambda: scatter_sum(pixel_ids, weights, n))
        self.values["kernels.scatter_mpts_s"] = (
            2 * len(pixel_ids) / (t_count + t_sum) / 1e6)
        seconds, _ = self.timed("kernels.gather", lambda: gather_sum(
            canvas, fragments.covered_pixels, fragments.covered_polys,
            fragments.num_polygons))
        self.values["kernels.gather_ms"] = seconds * 1e3

    def join_probes(self, table, regions, queries, viewport, fragments
                    ) -> None:
        bounded, accurate, pip = [], [], []
        for query in queries:
            seconds, _ = self.timed(
                "core.bounded.join", lambda q=query: bounded_raster_join(
                    table, regions, q, viewport, fragments=fragments))
            bounded.append(seconds)
            seconds, result = self.timed(
                "core.accurate.join", lambda q=query: accurate_raster_join(
                    table, regions, q, viewport, fragments=fragments))
            accurate.append(seconds)
            tested = result.stats["accurate"]["pip_points_tested"]
            pip.append(tested / max(1, result.stats["points_in_viewport"]))
        self.values["core.bounded.join_ms"] = statistics.median(bounded) * 1e3
        self.values["core.accurate.join_ms"] = \
            statistics.median(accurate) * 1e3
        self.values["core.accurate.pip_frac"] = statistics.median(pip)

    def planner_probes(self, engine, table, regions, query, resolution
                       ) -> None:
        def plan():
            return ExecutionPlan(table=table, regions=regions, query=query,
                                 method="auto", resolution=resolution)

        engine.execute(table, regions, query, method="auto",
                       resolution=resolution)  # fragments now cached
        seconds, _ = self.timed("core.planner.choose", lambda: (
            engine.planner.choose(engine.ctx, plan())))
        self.values["core.planner.choose_ms"] = seconds * 1e3
        predicted = engine.planner.predict_plan_ms(engine.ctx, plan())
        measured, _ = self.timed("core.planner.measured", lambda: (
            engine.execute(table, regions, query, method="auto",
                           resolution=resolution)))
        # Base: the measured auto-planned op, fragments cached.
        self.values["core.planner.pred_ratio"] = predicted / (measured * 1e3)

    def cache_probes(self, fragments) -> None:
        cache = QueryCache()
        puts, gets = [], []
        for i in range(max(8, self.reps)):
            key = ("probe", i)
            with self.spans.span("probe.core.cache.insert"):
                t0 = time.perf_counter()
                cache.put(key, fragments)
                puts.append(time.perf_counter() - t0)
            with self.spans.span("probe.core.cache.hit_get"):
                t0 = time.perf_counter()
                cache.get(key)
                gets.append(time.perf_counter() - t0)
        self.values["core.cache.insert_us"] = statistics.median(puts) * 1e6
        self.values["core.cache.hit_get_us"] = statistics.median(gets) * 1e6

    def pyramid_probes(self, table, regions, queries, resolution) -> None:
        engine = SpatialAggregationEngine()
        grid = engine.plan_grid_viewport(regions, resolution)
        fragments = engine.fragments_for(regions, grid)
        cold, warm = [], []
        for query in queries:
            def assemble(q=query):
                return assembled_bounded_join(engine.ctx, table, regions, q,
                                              grid, fragments=fragments)

            seconds, _ = self.timed("core.pyramid.assemble_cold", assemble,
                                    reps=1)
            cold.append(seconds)
            seconds, _ = self.timed("core.pyramid.assemble_warm", assemble)
            warm.append(seconds)
        self.values["core.pyramid.assemble_cold_ms"] = \
            statistics.median(cold) * 1e3
        self.values["core.pyramid.assemble_warm_ms"] = \
            statistics.median(warm) * 1e3

    def tcube_probes(self, table, regions, viewport, fragments) -> None:
        seconds, cube = self.timed(
            "core.tcube.build", lambda: build_temporal_canvas_cube(
                table, viewport, "t", DAY), reps=1)
        self.values["core.tcube.build_ms"] = seconds * 1e3
        self.values["core.tcube.bytes_mb"] = cube.memory_bytes() / 1e6
        origin = self.w.inputs.origin
        times = []
        for day in range(min(self.w.inputs.days, max(4, self.reps))):
            start = origin + day * DAY
            query = SpatialAggregation(
                "count", None, (TimeRange("t", start, start + DAY),))
            seconds, _ = self.timed(
                "core.tcube.brush", lambda q=query: cube.answer(
                    regions, fragments, q), reps=1)
            times.append(seconds)
        self.values["core.tcube.brush_ms"] = statistics.median(times) * 1e3

    def parallel_probes(self, table, regions, query, viewport, fragments
                        ) -> None:
        names = ("core.parallel.join_ms", "core.parallel.speedup")
        workers = 2
        if self.nproc < workers:
            # Fork overhead on one core is not scaling (ROADMAP aim 1).
            self.skip(names, f"nproc={self.nproc} < workers={workers}")
            return
        config = ParallelConfig(workers=workers,
                                chunk_size=-(-len(table) // workers))
        serial, _ = self.timed(
            "core.parallel.serial", lambda: bounded_raster_join(
                table, regions, query, viewport, fragments=fragments))
        parallel, _ = self.timed(
            "core.parallel.join", lambda: parallel_bounded_raster_join(
                table, regions, query, viewport, fragments=fragments,
                config=config))
        self.values["core.parallel.join_ms"] = parallel * 1e3
        # Base: the serial bounded join of the same query.
        self.values["core.parallel.speedup"] = serial / parallel

    def protocol_probes(self, table, regions, query, viewport, fragments
                        ) -> None:
        result = bounded_raster_join(table, regions, query, viewport,
                                     fragments=fragments)
        t_req, body = self.timed("serve.protocol.encode", lambda: json.dumps(
            encode_request("taxi", regions.name, query=query,
                           viewport=None, resolution=512)))
        t_res, text = self.timed("serve.protocol.encode", lambda: json.dumps(
            result_to_json(result)))
        self.values["serve.protocol.encode_ms"] = (t_req + t_res) * 1e3
        self.values["serve.protocol.result_bytes"] = len(text)
        t_req, _ = self.timed("serve.protocol.decode", lambda: (
            decode_request(json.loads(body))))
        t_res, _ = self.timed("serve.protocol.decode", lambda: (
            result_from_json(json.loads(text))))
        self.values["serve.protocol.decode_ms"] = (t_req + t_res) * 1e3
