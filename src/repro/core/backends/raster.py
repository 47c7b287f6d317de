"""Raster-join backends: bounded, accurate, tiled.

Cost model (abstract work units, shared vocabulary with the baselines):
a raster join pays one pass over the points, a canvas-sized join pass,
and — unless the unified cache already holds the fragment table for
this (region set, viewport) — a polygon rasterization that scales with
canvas pixels and total vertex count.  The accurate variant adds exact
point-in-polygon tests for boundary-pixel points, priced proportionally
to points x average vertices.
"""

from __future__ import annotations

import math

from ..accurate import accurate_raster_join
from ..bounded import bounded_raster_join
from ..bounds import resolution_for_epsilon
from ..pipeline import TableSource
from ..pyramid import GridViewport, block_coverage, grid_bounded_join
from ..tiling import tiled_bounded_raster_join
from .base import Backend, BackendCapabilities, ExecutionPlan
from .registry import register_backend


def planned_resolution(regions, plan: ExecutionPlan, ctx=None,
                       capped: bool = True) -> int:
    """The canvas resolution this plan implies (without building it).

    ``capped=False`` prices what the query *wants* even beyond the
    texture cap — how the planner detects that only tiling can honor a
    tight epsilon.
    """
    if plan.viewport is not None:
        return max(plan.viewport.width, plan.viewport.height)
    default = ctx.default_resolution if ctx is not None else 512
    cap = ctx.max_canvas_resolution if ctx is not None else 4096
    if plan.epsilon is not None:
        try:
            return resolution_for_epsilon(
                regions.bbox, plan.epsilon,
                max_resolution=cap if capped else 1 << 24)
        except Exception:
            return cap + 1 if capped else 1 << 24
    return int(plan.resolution or default)


def planned_pixels(regions, plan: ExecutionPlan, ctx=None) -> int:
    """Approximate canvas pixel count (square-canvas upper bound)."""
    res = planned_resolution(regions, plan, ctx, capped=False)
    return res * res


def _fragment_cost(regions, plan: ExecutionPlan, ctx, pixels: int) -> float:
    """Polygon-pass cost; zero when the fragment table is already cached."""
    if ctx is not None and plan.viewport is not None and \
            ctx.has_fragments(regions, plan.viewport):
        return 0.0
    if ctx is not None and plan.viewport is None:
        try:
            viewport = ctx.plan_viewport(regions, plan.resolution,
                                         plan.epsilon)
        except Exception:
            viewport = None
        if viewport is not None and ctx.has_fragments(regions, viewport):
            return 0.0
    return 0.25 * pixels + 8.0 * regions.total_vertices


@register_backend
class BoundedRasterBackend(Backend):
    """Pure raster evaluation with hard error bounds — the paper's fast
    path and the planner's default for interactive gestures."""

    name = "bounded"
    capabilities = BackendCapabilities(exact=False, bounded=True,
                                       uses_canvas=True)

    def estimate_cost(self, table, regions, plan, ctx=None) -> float:
        pixels = planned_pixels(regions, plan, ctx)
        points = float(len(table))
        if ctx is not None and isinstance(plan.viewport, GridViewport):
            # Pyramid assembly: cached blocks replace that fraction of
            # the point pass — how ``auto`` prices assembly vs.
            # re-scatter.
            coverage = block_coverage(ctx, table, plan.query, plan.viewport)
            points *= (1.0 - coverage)
        return (points + 0.05 * pixels
                + _fragment_cost(regions, plan, ctx, pixels))

    def run(self, ctx, plan):
        viewport = plan.viewport or ctx.plan_viewport(
            plan.regions, plan.resolution, plan.epsilon)
        fragments = ctx.fragments_for(plan.regions, viewport)
        if isinstance(viewport, GridViewport):
            # Grid-snapped viewports assemble from the block cache once
            # the view moves; a first sighting runs direct.
            return grid_bounded_join(ctx, plan.table, plan.regions,
                                     plan.query, viewport, fragments,
                                     plan.cancel)
        return bounded_raster_join(plan.table, plan.regions, plan.query,
                                   viewport, fragments=fragments)


@register_backend
class AccurateRasterBackend(Backend):
    """Hybrid raster + exact boundary tests: exact answers at raster
    speed once the polygon pass is cached."""

    name = "accurate"
    capabilities = BackendCapabilities(exact=True, uses_canvas=True)

    def estimate_cost(self, table, regions, plan, ctx=None) -> float:
        pixels = planned_pixels(regions, plan, ctx)
        avg_vertices = regions.total_vertices / max(1, len(regions))
        units = float(len(table))
        # The exact-PIP term is discounted relative to the pre-interval
        # implementation (was 0.2): interval classification confines
        # PIP tests to points in genuinely PARTIAL cells, a small
        # fraction of the old boundary-bucket population.
        return (2.0 * units + 0.05 * pixels
                + _fragment_cost(regions, plan, ctx, pixels)
                + 0.08 * units * avg_vertices)

    def run(self, ctx, plan):
        viewport = plan.viewport or ctx.plan_viewport(
            plan.regions, plan.resolution, plan.epsilon)
        return accurate_raster_join(
            plan.table, plan.regions, plan.query, viewport,
            fragments=ctx.fragments_for(plan.regions, viewport))


@register_backend
class TiledRasterBackend(Backend):
    """Bounded raster join over a virtual canvas beyond the texture cap.

    Rebuilds per-tile fragments every run (nothing cacheable across
    gestures), so the planner only reaches for it when the requested
    precision cannot fit one canvas.
    """

    name = "tiled"
    capabilities = BackendCapabilities(exact=False, bounded=True,
                                       uses_canvas=True,
                                       unbounded_canvas=True)

    def estimate_cost(self, table, regions, plan, ctx=None) -> float:
        pixels = planned_pixels(regions, plan, ctx)
        return (3.0 * len(table) + 0.1 * pixels
                + 8.0 * regions.total_vertices * max(
                    1.0, math.sqrt(pixels) / 1024.0))

    def run(self, ctx, plan):
        if isinstance(plan.viewport, GridViewport):
            # Under a grid-snapped viewport the cache blocks *are* the
            # tiles: assembly runs the same per-block pixel partition
            # the tiled join would, with the partials cached across
            # gestures once the view moves.
            return grid_bounded_join(
                ctx, plan.table, plan.regions, plan.query, plan.viewport,
                ctx.fragments_for(plan.regions, plan.viewport), plan.cancel)
        resolution = plan.resolution
        if resolution is None and plan.epsilon is not None:
            resolution = planned_resolution(plan.regions, plan, ctx,
                                            capped=False)
        # The context's cached grid index narrows each tile's points.
        return tiled_bounded_raster_join(
            TableSource(plan.table, ctx, plan.cancel), plan.regions,
            plan.query, resolution=resolution or ctx.default_resolution,
            cancel=plan.cancel)
