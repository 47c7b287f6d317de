"""The backend contract.

A backend is one spatial-aggregation strategy behind a uniform
interface: it names itself, declares capabilities the planner filters
on, prices a query (:meth:`Backend.estimate_cost`, in abstract work
units), and runs it against an :class:`~repro.core.context.ExecutionContext`
(:meth:`Backend.run`).  All per-query parameters travel in one
:class:`ExecutionPlan` so the executor, planner, and backends share a
single vocabulary — no positional-argument drift between layers.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field

from ...raster import Viewport
from ...table import PointTable
from ..query import SpatialAggregation
from ..regions import RegionSet
from ..result import AggregationResult


@dataclass(frozen=True)
class BackendCapabilities:
    """What the planner may assume about a backend."""

    #: Values are exact (no approximation error).
    exact: bool = False
    #: Returns hard per-region [lower, upper] bounds.
    bounded: bool = False
    #: Consumes a planned canvas (resolution/epsilon are meaningful).
    uses_canvas: bool = False
    #: Can render canvases beyond the texture cap (tiling).
    unbounded_canvas: bool = False
    #: Answers arbitrary, never-before-seen region sets.  Pre-aggregated
    #: backends (the cube) only answer what they materialized.
    adhoc_regions: bool = True


@dataclass
class ExecutionPlan:
    """One query's full parameter set as it flows through the layers."""

    table: PointTable
    regions: RegionSet
    query: SpatialAggregation
    method: str = "auto"
    resolution: int | None = None
    epsilon: float | None = None
    exact: bool = False
    viewport: Viewport | None = None
    #: Soft latency budget (milliseconds) for deadline-aware planning:
    #: when the cost model predicts a miss, the planner degrades the
    #: plan (exact -> bounded, then a coarser canvas) and records every
    #: step in ``decision["degraded"]``.  ``None`` disables degradation.
    deadline_ms: float | None = None
    #: Cooperative cancellation token (``threading.Event``-like: only
    #: ``is_set()`` is called).  Checked before dispatch, between tiles
    #: of the tiled paths and between partitions of the store scans; a
    #: set token raises :class:`~repro.errors.QueryCancelled`.
    cancel: object | None = None
    #: Filled by the planner (or the executor for explicit methods):
    #: ``{"inputs": ..., "decision": ..., "degraded": ...}`` — the
    #: normalized ``stats["plan"]`` payload.
    decision: dict = field(default_factory=dict)


class Backend(abc.ABC):
    """One registered spatial-aggregation strategy."""

    #: Registry key, e.g. ``"bounded"``; also the CLI ``--method`` value.
    name: str = ""
    capabilities: BackendCapabilities = BackendCapabilities()

    @abc.abstractmethod
    def estimate_cost(self, table: PointTable, regions: RegionSet,
                      plan: ExecutionPlan, ctx=None) -> float:
        """Predicted work units for this plan (lower is cheaper).

        ``ctx`` — when provided — lets the estimate credit artifacts
        already in the unified cache (prebuilt indexes, fragment
        tables); ``None`` prices a cold run.
        """

    @abc.abstractmethod
    def run(self, ctx, plan: ExecutionPlan) -> AggregationResult:
        """Execute the plan against the shared context."""

    def __repr__(self) -> str:
        return f"<backend {self.name!r}>"
