"""Exact baseline backends: naive scan and the grid index join.

Cost model: the index join pays an index build (waived when the unified
cache already holds one for this table), a candidate-refinement term
scaling with points x average polygon vertices, and a per-region probe
overhead.  The naive scan pays points x *total* vertices — the anchor
everything else is priced against.
"""

from __future__ import annotations

# Submodule imports (not repro.baselines) to stay cycle-free.
from ...baselines.grid_join import grid_index_join
from ...baselines.naive import naive_join
from .base import Backend, BackendCapabilities, ExecutionPlan
from .registry import register_backend

#: Fraction of a region's bbox candidates surviving refinement tests.
_REFINE_FACTOR = 0.5
#: Fixed probe overhead per region (index descent, bbox query).
_PER_REGION = 50.0
#: Index build cost per point.
_BUILD_FACTOR = 2.0


def _index_cost(table, regions, ctx) -> float:
    avg_vertices = regions.total_vertices / max(1, len(regions))
    build = 0.0
    if ctx is None or not ctx.has_index(table):
        build = _BUILD_FACTOR * len(table)
    return (build + _REFINE_FACTOR * len(table) * avg_vertices
            + _PER_REGION * len(regions))


@register_backend
class NaiveBackend(Backend):
    """Brute-force exact join — ground truth, and the cheapest plan for
    genuinely tiny inputs where building anything would dominate."""

    name = "naive"
    capabilities = BackendCapabilities(exact=True)

    def estimate_cost(self, table, regions, plan, ctx=None) -> float:
        return float(len(table) * max(1, regions.total_vertices))

    def run(self, ctx, plan: ExecutionPlan):
        return naive_join(plan.table, plan.regions, plan.query)


@register_backend
class GridIndexBackend(Backend):
    """Uniform-grid index join (the paper's index-based baseline)."""

    name = "grid"
    capabilities = BackendCapabilities(exact=True)

    def estimate_cost(self, table, regions, plan, ctx=None) -> float:
        return _index_cost(table, regions, ctx)

    def run(self, ctx, plan: ExecutionPlan):
        return grid_index_join(plan.table, plan.regions, plan.query,
                               index=ctx.grid_index(plan.table))
