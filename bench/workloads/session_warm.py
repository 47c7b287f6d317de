"""``session-warm``: the demo's interactive loop, one long session.

One ``InteractiveSession`` replays an E8-style script: day/week brush
sweeps, pan/zoom excursions that revisit positions, filter toggles,
aggregate and region-level switches.  The unified cache, the canvas
pyramid and the temporal cube serve most gestures; the rest re-scatter.
p50 sits in the cache-served mode and p95 in the re-scatter mode, so
the two metrics separate cache work from scatter work.
"""

from __future__ import annotations

import statistics

from repro.core import SpatialAggregationEngine
from repro.urbane import DataManager, InteractiveSession

from ..gestures import GestureScript, Op, apply
from ..inputs import make_inputs
from .base import Case, Workload

LEVELS = ("neighborhoods", "districts")
RESOLUTION = 512

#: One lap: 50 ops — brush 24, pan/zoom 16, filter 4, aggregate 4,
#: level 2 (ISSUE 11's E8-style mix).  Four aggregate and two level
#: switches bring the session back to COUNT over neighborhoods, so
#: every lap starts from the same state.
CHOREOGRAPHY = (
    "brush7", "zoom:+y", "aggregate", "brush1", "pan:-x", "filter",
    "aggregate", "level", "brush1", "pan:+x", "aggregate", "filter",
    "level", "pan:+y", "aggregate", "brush7")

#: Untimed warm-up: the first brush (cube build), the first map moves
#: and one visit to the second level; leaves the session where a lap
#: starts (COUNT over neighborhoods).
WARMUP = ("brush7", "zoom:+y", "level", "brush1", "level")


class SessionWarm(Workload):
    name = "session-warm"
    why = ("one long InteractiveSession: cache, pyramid and tcube serve "
           "most gestures (p50), the rest re-scatter (p95)")
    class_metrics = {cls: f"urbane.session.{cls}_p50_ms" for cls in (
        "brush", "pan", "zoom", "filter", "aggregate", "level")}

    def make_inputs(self):
        return make_inputs(self.seed, self.size(300_000, 20_000), LEVELS)

    def setup(self) -> None:
        self.manager = DataManager(SpatialAggregationEngine())
        self.manager.add_dataset(self.inputs.table, "taxi")
        for name, regions in self.inputs.regions.items():
            self.manager.add_region_set(regions, name)
        self.gestures = GestureScript(
            self.seed, 0, self.inputs.origin, self.inputs.days,
            CHOREOGRAPHY, levels=LEVELS)
        self.session = InteractiveSession(
            self.manager, "taxi", LEVELS[0], method="bounded",
            resolution=RESOLUTION)
        # The analyst pays open / cube build / first renders once per
        # session, not per gesture.
        for op in self.gestures.lap(0, WARMUP):
            self.execute(op)

    def script(self, lap: int, client: int = 0) -> list[Op]:
        return self.gestures.lap(lap + 1)

    def execute(self, op: Op, client: int = 0, trace: bool = False):
        result = apply(self.session, op)
        self.gestures.note(op)
        return result

    def case(self, op: Op, client: int = 0) -> Case:
        state = self.session.state
        moved = self.gestures.moved
        return Case(
            regions=self.manager.region_set(state.regions),
            query=state.effective_query(),
            viewport=self.session.grid_viewport() if moved else None,
            resolution=RESOLUTION, full_extent=not moved)

    def cache_stats(self) -> dict:
        return self.manager.cache_stats()

    def probe_levels(self):
        return [(level, RESOLUTION) for level in LEVELS]

    def layer_counts(self, before, after, samples):
        # Session overhead: what the gesture cost beyond the engine's
        # own ``time_execute_s`` (state bookkeeping, the tcube gate).
        over = [s.latency_s - s.stats["time_execute_s"] for s in samples
                if s.stats and "time_execute_s" in s.stats]
        if not over:
            return {}
        return {"urbane.session.overhead_ms": statistics.median(over) * 1e3}
