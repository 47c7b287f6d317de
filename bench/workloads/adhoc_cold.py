"""``adhoc-cold``: the paper's ad-hoc case — nothing is reusable.

Before each op (untimed) the engine's caches are cleared, so the
polygon pass, the filter masks and the scatter+gather of the bounded /
accurate join do all the work; the caches are write-only (every op pays
insert + byte accounting and reads nothing back).
"""

from __future__ import annotations

from repro.core import SpatialAggregation, SpatialAggregationEngine
from repro.table import F

from ..gestures import Op, threshold
from ..inputs import AGGREGATES, make_inputs, rng_for
from .base import Case, Workload

LEVELS = ("neighborhoods", "districts")
RESOLUTIONS = (256, 512, 1024)
METHODS = ("bounded", "accurate")


class AdhocCold(Workload):
    name = "adhoc-cold"
    why = ("caches cleared before every op: fragment build, filter masks "
           "and bounded/accurate scatter+gather do all the work")

    @property
    def resolutions(self):
        return RESOLUTIONS[:2] if self.smoke else RESOLUTIONS

    def make_inputs(self):
        return make_inputs(self.seed, self.size(200_000, 20_000), LEVELS)

    def setup(self) -> None:
        self.engine = SpatialAggregationEngine()
        # Warm the interpreter, not the caches: every timed op starts
        # from a cleared cache anyway.
        for op in self.script(0)[:self.size(4, 2)]:
            self.execute(op)

    def script(self, lap: int, client: int = 0) -> list[Op]:
        # One lap is the 12 (level x resolution x method) cells; the
        # aggregate rotates across laps so four laps cover all 48
        # combinations while every lap costs the same.  Each op gets a
        # fresh filter threshold so no two ops share a mask.
        rng = rng_for(self.seed, self.name, lap)
        ops = []
        cell = 0
        for level in LEVELS:
            for resolution in self.resolutions:
                for method in METHODS:
                    agg, column = AGGREGATES[(lap + cell) % len(AGGREGATES)]
                    query = SpatialAggregation(
                        agg, column, (F("fare") > threshold(rng),))
                    ops.append(Op("adhoc", "execute", (), {
                        "level": level, "resolution": resolution,
                        "method": method, "query": query}))
                    cell += 1
        return ops

    def prepare(self, op: Op, client: int = 0) -> None:
        self.engine.clear_caches()

    def execute(self, op: Op, client: int = 0, trace: bool = False):
        k = op.kwargs
        return self.engine.execute(
            self.inputs.table, self.inputs.regions[k["level"]], k["query"],
            method=k["method"], resolution=k["resolution"])

    def case(self, op: Op, client: int = 0) -> Case:
        k = op.kwargs
        return Case(regions=self.inputs.regions[k["level"]],
                    query=k["query"], viewport=None,
                    resolution=k["resolution"], full_extent=True)

    def cache_stats(self) -> dict:
        return self.engine.cache_stats()

    def probe_levels(self):
        return [(level, r) for level in LEVELS for r in self.resolutions]
