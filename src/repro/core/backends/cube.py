"""Pre-aggregation (data cube) backend.

The cube trades build time for O(regions) answers: it materializes
aggregates over a fixed (region, time bucket, category) lattice, so it
can only answer queries that align with what it materialized.  The
adapter infers the materialization from the query itself — measure
column, the time brush's bucket alignment, the categorical columns its
filters touch — and caches the built cube in the unified cache.

The planner will therefore *never pick* ``cube`` for an ad-hoc region
set: building a cube costs an exact point->region assignment (naive-join
money), so ``auto`` only routes here when a previously materialized cube
for this exact (table, region set) pair can already answer the query.
Request ``method="cube"`` explicitly to pay the build.
"""

from __future__ import annotations

import math

from ...table import CATEGORICAL, Comparison, IsIn, TimeRange
from ..aggregates import AVG, SUM
from .base import Backend, BackendCapabilities, ExecutionPlan
from .registry import register_backend

#: Most time buckets the adapter will materialize before dropping the
#: time dimension (an unaligned brush then raises CubeError, the honest
#: pre-aggregation failure mode).
MAX_TIME_BUCKETS = 4096


def _build_spec(table, query) -> tuple:
    """Materialization choices the query implies: (value column,
    time column, bucket seconds, category columns)."""
    value_column = (query.value_column
                    if query.agg in (SUM, AVG) else None)
    time_column = None
    bucket_s = 0
    categories: list[str] = []
    for expr in query.filters:
        if isinstance(expr, TimeRange) and time_column is None:
            bucket = math.gcd(int(expr.start), int(expr.end))
            if bucket <= 0:
                continue
            tvals = (table.column(expr.column).values
                     if table.has_column(expr.column) else None)
            if tvals is None:
                continue
            # An empty table still materializes the (one, empty) bucket,
            # so it answers the same brushes a populated one does.
            span = (int(tvals.max()) - int(tvals.min()) + 1
                    if len(tvals) else 1)
            if math.ceil(span / bucket) <= MAX_TIME_BUCKETS:
                time_column = expr.column
                bucket_s = bucket
        elif isinstance(expr, (Comparison, IsIn)):
            if (table.has_column(expr.column)
                    and table.column(expr.column).kind == CATEGORICAL):
                categories.append(expr.column)
    return (value_column, time_column, bucket_s,
            tuple(sorted(set(categories))))


@register_backend
class CubeBackend(Backend):
    """Traditional pre-aggregation: instant for anticipated queries,
    unable to answer anything else."""

    name = "cube"
    capabilities = BackendCapabilities(exact=True, adhoc_regions=False)

    def estimate_cost(self, table, regions, plan, ctx=None) -> float:
        if ctx is not None:
            for cube in ctx.cached_cubes(table, regions):
                if cube.can_answer(regions, plan.query):
                    return float(len(regions))
        # Cold build = exact assignment over every point: naive-join money.
        return float(len(table) * max(1, regions.total_vertices)
                     + len(regions))

    def run(self, ctx, plan: ExecutionPlan):
        from ...baselines.cube import DataCube  # lazy: avoids import cycle

        table, regions, query = plan.table, plan.regions, plan.query
        # A cube materialized earlier may already cover this query.
        for cube in ctx.cached_cubes(table, regions):
            if cube.can_answer(regions, query):
                return cube.answer(regions, query)
        value_column, time_column, bucket_s, categories = _build_spec(
            table, query)
        cube = ctx.cube_for(
            table, regions,
            (value_column, time_column, bucket_s, categories),
            lambda: DataCube(table, regions,
                             time_column=time_column,
                             time_bucket_s=bucket_s or 86_400,
                             category_columns=categories,
                             value_column=value_column))
        return cube.answer(regions, query)
