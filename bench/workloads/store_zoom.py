"""``store-zoom``: out-of-core exploration, working set 8x the mount cache.

The trips are written as a partitioned store (set-up) and opened under
a mount budget of one eighth of the store's bytes.  City-wide scans
thrash the mount LRU; block windows at four fixed hot spots, each read
three times in a row, re-read the same partitions and hit it — opposite
uses of one LRU, so a scan-resistant policy or partition batching that
helps one and costs the other shows.  The only workload larger than the
program's cache.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

from repro.core import (
    ParallelConfig,
    SpatialAggregation,
    SpatialAggregationEngine,
)
from repro.geometry import BBox
from repro.raster import Viewport
from repro.store import Dataset, PartitionPruner, build_store
from repro.table import F, TimeRange

from ..gestures import PAN_PX, Op, threshold
from ..inputs import DAY, make_inputs, rng_for
from ..measure import ratio
from .base import Case, Workload

LEVEL = "neighborhoods"
RESOLUTION = 512
PARTITION_ROWS = 8_192
#: Spatial cells per axis of the store's layout: with 7-day time buckets
#: ~90 partitions, ~900 files.  File creation on the sandbox's disk
#: costs 0.02-0.4 ms depending on the minute; at the writer's default
#: 8x8 grid (3000 files) that mood was half of ``setup_s``.
STORE_GRID = 4
#: Window sizes as a share of the city's extent per axis.
DISTRICT, BLOCK = 0.5, 0.0625


class StoreZoom(Workload):
    name = "store-zoom"
    why = ("store 8x larger than the mount budget: prune/mount/scan do "
           "the work; city scans thrash the mount LRU, hot spots hit it")
    class_metrics = {"city": "store.city_scan_p50_ms",
                     "block": "store.block_zoom_p50_ms",
                     "brush": "store.brush_p50_ms"}

    def make_inputs(self):
        return make_inputs(self.seed, self.size(200_000, 20_000), (LEVEL,))

    def setup(self) -> None:
        regions = self.inputs.regions[LEVEL]
        t0 = time.perf_counter()
        built = build_store(
            self.inputs.table, self.scratch("store"),
            partition_rows=self.size(PARTITION_ROWS, 1_024),
            time_column="t", time_bucket_seconds=7 * DAY, grid=STORE_GRID)
        self.build_s = time.perf_counter() - t0
        self.store_bytes = built.total_nbytes
        self.dataset = Dataset.open(
            built.path, memory_budget_bytes=self.store_bytes // 8)
        self.engine = SpatialAggregationEngine(
            default_resolution=RESOLUTION)
        self.hotspots = self.pick_hotspots(4)
        self.grid = self.engine.plan_grid_viewport(regions, RESOLUTION)
        # One untimed lap: every window's fragments get built (the timed
        # ops measure the store, not the polygon pass) and the mount LRU
        # and block cache reach the state every timed lap starts from.
        for op in self.lap_ops(0):
            self.execute(op)

    def teardown(self) -> None:
        self.dataset.drop_mounts()

    def pick_hotspots(self, count: int, bins: int = 8
                      ) -> list[tuple[float, float]]:
        """Relative centres of the densest cells of a coarse histogram
        of the trips whose block window fits in half the mount budget.

        Hot spots are where the data is, and small enough that an
        immediate re-read can hit the mount LRU while the next hot spot
        evicts it; a window over the downtown core alone outgrows the
        whole budget and would never hit.
        """
        table = self.inputs.table
        bbox = self.inputs.regions[LEVEL].bbox
        hist, _, _ = np.histogram2d(
            table.x, table.y, bins=bins,
            range=[[bbox.xmin, bbox.xmax], [bbox.ymin, bbox.ymax]])
        by_density = [((int(i) // bins + 0.5) / bins,
                       (int(i) % bins + 0.5) / bins)
                      for i in np.argsort(hist.ravel(), kind="stable")[::-1]]
        pruner = PartitionPruner(self.dataset)
        fits = self.dataset.memory_budget_bytes // 2
        spots = [spot for spot in by_density if 0 < pruner.prune(
            (), self.window(BLOCK, *spot)).bytes_scanned <= fits]
        return (spots + by_density)[:count]

    def window(self, factor: float, cx: float = 0.5, cy: float = 0.5
               ) -> Viewport:
        """A ``factor``-sized world window centred at a relative spot."""
        bbox = self.inputs.regions[LEVEL].bbox
        x = bbox.xmin + bbox.width * cx
        y = bbox.ymin + bbox.height * cy
        w = bbox.width * factor / 2
        h = bbox.height * factor / 2
        return Viewport.fit(BBox(x - w, y - h, x + w, y + h), RESOLUTION)

    def script(self, lap: int, client: int = 0) -> list[Op]:
        return self.lap_ops(lap + 1)

    def lap_ops(self, index: int) -> list[Op]:
        """Lap 0 is the warm-up; the timed laps follow."""
        rng = rng_for(self.seed, self.name, index)
        inputs = self.inputs

        def query(agg="sum", column="fare", extra=()):
            return SpatialAggregation(
                agg, column, (F("fare") > threshold(rng),) + tuple(extra))

        def scan(cls, viewport, q):
            return Op(cls, "execute", (), {"viewport": viewport, "query": q})

        def brush():
            day = inputs.origin + 7 * DAY * int(
                rng.integers(0, max(1, inputs.days // 7)))
            return scan("brush", None, query(
                "count", None, (TimeRange("t", day, day + 7 * DAY),)))

        def pan_run():
            # One fresh filter per run: its first frame scatters every
            # block from the store, the next reuses what overlaps, the
            # last is a pure revisit.
            q = query()
            return [scan("pan", self.grid.pan(step * PAN_PX, 0), q)
                    for step in (0, 1, 0)]

        def visit(spot):
            # An analyst zooms into a hot spot and tweaks the filter
            # twice: the re-reads find the partitions still mounted.
            viewport = self.window(BLOCK, *spot)
            return [scan("block", viewport, query()) for _ in range(3)]

        # 23 ops.  The twelve block reads are the majority, so the
        # median sits in the hot-spot mode; the two first pan frames are
        # the most expensive ops, so the 95th percentile sits there.
        a, b, c, d = self.hotspots
        ops = [scan("city", self.window(1.0), query()),
               scan("district", self.window(DISTRICT), query())]
        ops += visit(a) + visit(b)
        ops.append(brush())
        ops += pan_run()
        ops += visit(c) + visit(d)
        ops.append(brush())
        ops += pan_run()
        return ops

    def execute(self, op: Op, client: int = 0, trace: bool = False):
        k = op.kwargs
        return self.engine.execute(
            self.dataset, self.inputs.regions[LEVEL], k["query"],
            viewport=k["viewport"],
            resolution=None if k["viewport"] is not None else RESOLUTION)

    def case(self, op: Op, client: int = 0) -> Case:
        k = op.kwargs
        return Case(regions=self.inputs.regions[LEVEL], query=k["query"],
                    viewport=k["viewport"], resolution=RESOLUTION,
                    full_extent=op.cls in ("city", "brush"))

    def oracle_table(self):
        # The store's parity claim is against its own manifest order; a
        # separate handle keeps the oracle's mounts out of the measured
        # dataset's LRU counters.
        return Dataset.open(self.dataset.path).to_table()

    def cache_stats(self) -> dict:
        return self.engine.cache_stats()

    def snapshot(self) -> dict:
        return {"cache": self.cache_stats(),
                "mounts": self.dataset.mount_stats()}

    def probe_levels(self):
        return [(LEVEL, RESOLUTION)]

    def layer_counts(self, before, after, samples):
        m0, m1 = before["mounts"], after["mounts"]
        mounts = m1["mounts"] - m0["mounts"]
        hits = m1["hits"] - m0["hits"]
        total = pruned = rows = 0
        busy = 0.0
        for s in samples:
            store = (s.stats or {}).get("store")
            if not store:
                continue
            total += store["partitions"]["total"]
            pruned += store["partitions"]["pruned"]
            rows += store["rows"]["scanned"]
            busy += s.latency_s
        rows_total = len(self.inputs.table)
        return {
            "store.build_rows_per_s": rows_total / self.build_s,
            "store.bytes_per_row": self.store_bytes / rows_total,
            "store.pruned_frac": ratio(pruned, total),
            "store.mounts": mounts,
            "store.mount_hit_frac": ratio(hits, hits + mounts),
            "store.evictions": m1["evictions"] - m0["evictions"],
            "store.scan_rows_per_s": ratio(rows, busy),
        }

    def probes(self, p) -> None:
        regions = self.inputs.regions[LEVEL]
        city = self.window(1.0)
        query = SpatialAggregation("sum", "fare", (F("fare") > 7.0,))

        pruner = PartitionPruner(self.dataset)
        seconds, _ = p.timed("store.prune",
                             lambda: pruner.prune(query.filters, city))
        p.values["store.prune_ms"] = seconds * 1e3

        # Cold mounts on a handle of its own: every call maps a
        # partition nothing has touched.
        handle = Dataset.open(self.dataset.path)
        mounts = [p.timed("store.mount",
                          lambda i=i: handle.partition_table(i), reps=1)[0]
                  for i in range(min(handle.num_partitions, 16))]
        p.values["store.mount_ms"] = statistics.median(mounts) * 1e3

        def scan(engine, source, **kwargs):
            def run():
                return engine.execute(source, regions, query, viewport=city,
                                      **kwargs)
            run()  # fragments cached, first-touch paid
            return run

        reference = handle.to_table()
        engine = SpatialAggregationEngine(default_resolution=RESOLUTION)
        stored, _ = p.timed("store.city_scan", scan(engine, self.dataset))
        memory, _ = p.timed("store.city_scan_memory",
                            scan(engine, reference, method="bounded"))
        # Base: the same city scan on the materialized in-memory table.
        p.values["store.vs_memory_ratio"] = stored / memory

        shards = 2
        if p.nproc < shards:
            p.skip(("shard.scan_ms", "shard.speedup"),
                   f"nproc={p.nproc} < shards={shards}")
            return

        def engine_with(n):
            return SpatialAggregationEngine(
                default_resolution=RESOLUTION,
                parallel=ParallelConfig(workers=n, shards=n,
                                        serial_threshold=0))

        sharded, _ = p.timed("shard.scan",
                             scan(engine_with(shards), self.dataset))
        serial, _ = p.timed("shard.scan_serial",
                            scan(engine_with(1), self.dataset))
        p.values["shard.scan_ms"] = sharded * 1e3
        # Base: the same city scan with one shard.
        p.values["shard.speedup"] = serial / sharded
