"""The cost-based planner behind ``method="auto"``.

The planner turns the paper's evaluation matrix into a search space:
for each query it gathers cheap statistics (point count, region and
vertex counts, the requested epsilon/exactness, what the unified cache
already holds), filters the registered backends by capability, prices
the survivors with :meth:`Backend.estimate_cost`, and picks the
cheapest.  The decision is recorded in a normalized ``stats["plan"]``
payload so every answer explains itself::

    {"inputs":   ...statistics the cost model ran on...,
     "decision": {"chosen": ..., "planned": ..., "costs": ...},
     "degraded": None | ...deadline-degradation record...}

Capability gates:

* ``exact=True`` restricts to exact backends;
* a requested precision beyond the canvas cap restricts the raster
  family to ``tiled``;
* ``cube`` (or any backend declaring ``adhoc_regions=False``) is only
  ever a candidate when a cube materialized earlier for this exact
  (table, region set) pair can already answer the query — the planner
  never pays a cube build for an ad-hoc polygon set.

Deadline-aware degradation: when the plan carries a ``deadline_ms``
hint (the serving layer threads per-request deadlines through), the
planner converts the chosen candidate's abstract cost into predicted
milliseconds via a self-calibrating units-per-second rate (updated from
observed executions by :meth:`CostBasedPlanner.observe`).  If the
prediction misses the deadline it walks a degradation ladder — drop
``exact`` (accurate -> bounded), then halve the canvas resolution down
to :data:`MIN_DEGRADED_RESOLUTION` — replanning after each step, and
records every step in ``stats["plan"]["degraded"]`` so a degraded
answer is always labeled as such.

Candidates come from the registry, so third-party backends registered
with :func:`register_backend` compete in ``auto`` planning too.
"""

from __future__ import annotations

from ..errors import QueryError
from .backends import backend_names, get_backend
from .backends.base import ExecutionPlan
from .backends.raster import planned_resolution
from .context import ExecutionContext

#: Initial calibration of abstract cost units per wall-clock second.
#: One unit is roughly one point visited; a NumPy point pass sustains
#: on the order of 10M points/s, and :meth:`CostBasedPlanner.observe`
#: refines the rate from real executions (EWMA).
UNITS_PER_SECOND = 10e6

#: Degradation never coarsens the canvas below this resolution — the
#: floor at which per-region bounds stop being useful.
MIN_DEGRADED_RESOLUTION = 64

#: EWMA weight of a fresh observation when recalibrating the rate.
_OBSERVE_ALPHA = 0.3


class CostBasedPlanner:
    """Chooses a backend for ``method='auto'`` and records why."""

    def __init__(self, units_per_second: float = UNITS_PER_SECOND):
        if units_per_second <= 0:
            raise QueryError("units_per_second must be positive")
        self.units_per_second = float(units_per_second)

    # -- calibration -------------------------------------------------------

    def observe(self, cost_units: float, elapsed_s: float) -> None:
        """Fold one (predicted cost, observed latency) pair into the
        units-per-second calibration (EWMA, outlier-tolerant)."""
        if cost_units <= 0 or elapsed_s <= 0:
            return
        rate = float(cost_units) / float(elapsed_s)
        self.units_per_second = ((1.0 - _OBSERVE_ALPHA)
                                 * self.units_per_second
                                 + _OBSERVE_ALPHA * rate)

    def predict_ms(self, cost_units: float) -> float:
        """Predicted wall-clock milliseconds for an abstract cost."""
        return float(cost_units) / self.units_per_second * 1000.0

    # -- statistics --------------------------------------------------------

    def plan_inputs(self, ctx: ExecutionContext, plan: ExecutionPlan) -> dict:
        """The statistics the cost model runs on (also logged in stats)."""
        from .pyramid import GridViewport, block_coverage
        from .tcube import find_answering_cube

        table, regions = plan.table, plan.regions
        desired = planned_resolution(regions, plan, ctx, capped=False)
        viewport = plan.viewport
        if viewport is None and desired <= ctx.max_canvas_resolution:
            try:
                viewport = ctx.plan_viewport(regions, plan.resolution,
                                             plan.epsilon)
            except QueryError:
                viewport = None
        return {
            "n_points": len(table),
            "n_regions": len(regions),
            "total_vertices": regions.total_vertices,
            "resolution": desired,
            "canvas_cap": ctx.max_canvas_resolution,
            "epsilon": plan.epsilon,
            "exact": plan.exact,
            "deadline_ms": plan.deadline_ms,
            "fragments_cached": (
                plan.viewport is not None
                and ctx.has_fragments(regions, plan.viewport)),
            "indexes_cached": ["grid"] if ctx.has_index(table) else [],
            "cube_cached": any(
                cube.can_answer(regions, plan.query)
                for cube in ctx.cached_cubes(table, regions)),
            "tcube_cached": (
                viewport is not None
                and find_answering_cube(ctx, table, plan.query,
                                        viewport) is not None),
            # Fraction of the canvas servable from cached pyramid
            # blocks (0.0 for ungridded viewports) — the bounded
            # backend discounts its point pass by this much.
            "blocks_cached": (
                block_coverage(ctx, table, plan.query, plan.viewport)
                if isinstance(plan.viewport, GridViewport) else 0.0),
            # Which scatter/gather kernel implementation runs the hot
            # loops (selection is process-global, see repro.kernels).
            "kernel": ctx.kernel_info()["selected"],
        }

    def candidates(self, ctx: ExecutionContext, plan: ExecutionPlan,
                   inputs: dict) -> list[str]:
        over_cap = inputs["resolution"] > ctx.max_canvas_resolution
        # An explicit epsilon/resolution/viewport is a request for the
        # raster contract — hard per-region bounds at that pixel size —
        # so only bounds-producing backends qualify.
        precision_pinned = not plan.exact and (
            plan.epsilon is not None or plan.resolution is not None
            or plan.viewport is not None)
        names: list[str] = []
        # Registration order (built-ins first) also breaks exact cost
        # ties, so third-party backends never displace a built-in that
        # prices identically.
        for name in backend_names():
            backend = get_backend(name)
            caps = backend.capabilities
            if plan.exact and not caps.exact:
                continue
            if precision_pinned and not caps.bounded:
                continue
            if over_cap and caps.uses_canvas and not caps.unbounded_canvas:
                continue
            if not over_cap and caps.unbounded_canvas:
                # One canvas suffices; tiling only rebuilds per tile.
                continue
            if not caps.adhoc_regions and not inputs["cube_cached"]:
                # Pre-aggregation backends only qualify once something
                # materialized for this (table, regions) pair can answer.
                continue
            names.append(name)
        return names

    def _price(self, ctx: ExecutionContext, plan: ExecutionPlan
               ) -> tuple[dict, dict, str]:
        """One plan->(inputs, costs, cheapest) evaluation round."""
        inputs = self.plan_inputs(ctx, plan)
        names = self.candidates(ctx, plan, inputs)
        if not names:
            raise QueryError(
                f"no registered backend can satisfy this plan "
                f"(exact={plan.exact}, resolution={inputs['resolution']}, "
                f"cap={ctx.max_canvas_resolution})")
        costs = {
            name: float(get_backend(name).estimate_cost(
                plan.table, plan.regions, plan, ctx=ctx))
            for name in names
        }
        chosen = min(names, key=lambda n: costs[n])
        return inputs, costs, chosen

    def predict_plan_ms(self, ctx: ExecutionContext,
                        plan: ExecutionPlan) -> float:
        """Predicted wall-clock milliseconds for one plan.

        Prices the plan exactly as :meth:`choose` would (explicit
        methods price that backend, ``auto`` prices the cheapest
        eligible candidate) and converts the abstract cost through the
        EWMA-calibrated rate.  Cheap to evaluate, with no side effects
        on the plan's decision record, so a caller can set the
        prediction beside what the plan then actually costs.
        """
        if plan.method and plan.method != "auto":
            cost = float(get_backend(plan.method).estimate_cost(
                plan.table, plan.regions, plan, ctx=ctx))
        else:
            _inputs, costs, chosen = self._price(ctx, plan)
            cost = costs[chosen]
        if cost == float("inf"):
            raise QueryError("plan priced at infinite cost")
        return self.predict_ms(cost)

    # -- deadline degradation ----------------------------------------------

    def _degrade(self, ctx: ExecutionContext, plan: ExecutionPlan,
                 inputs: dict, costs: dict, chosen: str
                 ) -> tuple[dict, dict, str, dict]:
        """Walk the degradation ladder until the deadline fits (or the
        ladder is exhausted); mutates ``plan`` (exact/resolution)."""
        deadline = float(plan.deadline_ms)
        steps: list[dict] = []
        predicted = self.predict_ms(costs[chosen])

        # Rung 1: drop exactness — accurate -> bounded keeps hard error
        # bounds, shedding the exact boundary pass.
        if predicted > deadline and plan.exact:
            was = chosen
            plan.exact = False
            inputs, costs, chosen = self._price(ctx, plan)
            predicted = self.predict_ms(costs[chosen])
            steps.append({"step": "exact->bounded", "from": was,
                          "to": chosen, "predicted_ms": predicted})

        # Rung 2: coarsen the canvas.  Halving the resolution quarters
        # the pixel terms (and can move an over-cap 'tiled' plan back
        # onto a single canvas); the wider pixel diagonal widens — but
        # never invalidates — the error bounds.  An explicit viewport
        # pins the canvas, so it is never overridden.
        while (predicted > deadline and plan.viewport is None
               and get_backend(chosen).capabilities.uses_canvas):
            current = planned_resolution(plan.regions, plan, ctx,
                                         capped=False)
            if current <= MIN_DEGRADED_RESOLUTION:
                break
            plan.resolution = max(MIN_DEGRADED_RESOLUTION, current // 2)
            plan.epsilon = None
            inputs, costs, chosen = self._price(ctx, plan)
            predicted = self.predict_ms(costs[chosen])
            steps.append({"step": "coarser-canvas",
                          "resolution": plan.resolution,
                          "to": chosen, "predicted_ms": predicted})

        degraded = {
            "applied": bool(steps),
            "deadline_ms": deadline,
            "predicted_ms": predicted,
            "within_deadline": predicted <= deadline,
            "steps": steps,
            "units_per_second": self.units_per_second,
        }
        return inputs, costs, chosen, degraded

    # -- entry point -------------------------------------------------------

    def choose(self, ctx: ExecutionContext, plan: ExecutionPlan) -> str:
        """Pick a backend; fills ``plan.decision`` as a side effect."""
        inputs, costs, chosen = self._price(ctx, plan)
        degraded = None
        if plan.deadline_ms is not None:
            inputs, costs, chosen, degraded = self._degrade(
                ctx, plan, inputs, costs, chosen)
        plan.decision = {
            "inputs": inputs,
            "decision": {
                "chosen": chosen,
                "planned": True,
                "costs": costs,
            },
            "degraded": degraded,
        }
        return chosen
