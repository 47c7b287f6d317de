"""The ``tcube-raster`` backend: timeline brushing as a cube lookup.

Adapts :mod:`repro.core.tcube` to the :class:`Backend` protocol.  The
planner prices it at O(pixels + active pixels) — but *only* when a
cached cube can already answer the query (cost is infinite otherwise):
``method="auto"`` never pays a cube build on a guess, mirroring the
``cube`` backend's contract.  Running it explicitly does pay the
one-time build, which then amortizes across every subsequent brush
step; the session's brush gate routes here only for a cached cube or
a cube its previous brush asked for too (see
:meth:`~repro.urbane.InteractiveSession._brush_method`).
"""

from __future__ import annotations

import time

from ...errors import QueryError
from ..pipeline import TableSource
from ..tcube import (
    MAX_TCUBE_SLICES,
    TemporalCanvasCube,
    build_temporal_canvas_cube,
    cube_for_brush,
    find_answering_cube,
)
from .base import Backend, BackendCapabilities
from .raster import _fragment_cost, planned_pixels
from .registry import register_backend


@register_backend
class TemporalCanvasCubeBackend(Backend):
    """Prefix-summed time-sliced canvases behind the backend protocol."""

    name = "tcube-raster"
    capabilities = BackendCapabilities(exact=False, bounded=True,
                                       uses_canvas=True)

    def estimate_cost(self, table, regions, plan, ctx=None) -> float:
        if ctx is None:
            return float("inf")
        viewport = plan.viewport
        if viewport is None:
            try:
                viewport = ctx.plan_viewport(regions, plan.resolution,
                                             plan.epsilon)
            except Exception:
                return float("inf")
        cube = find_answering_cube(ctx, table, plan.query, viewport)
        if cube is None:
            # No materialized cube answers: auto-planning never pays
            # the build, so this candidate prices itself out.
            return float("inf")
        pixels = planned_pixels(regions, plan, ctx)
        # Two-slice difference over the active pixels, one canvas-sized
        # zero-fill, plus the (usually cached) polygon pass.
        return (0.05 * pixels + float(cube.num_active_pixels)
                + _fragment_cost(regions, plan, ctx, pixels))

    def run(self, ctx, plan):
        query = plan.query
        viewport = plan.viewport or ctx.plan_viewport(
            plan.regions, plan.resolution, plan.epsilon)
        chosen = cube_for_brush(ctx, plan.table, query, viewport)
        if chosen is None:
            raise QueryError(
                f"no temporal canvas cube serves {query.describe()} "
                f"within {MAX_TCUBE_SLICES} slices and the memory cap; "
                f"re-scatter instead")
        fragments = ctx.fragments_for(plan.regions, viewport)

        built = False
        t0 = time.perf_counter()
        if isinstance(chosen, TemporalCanvasCube):
            # Re-fetch through the cache so the hit counts and the
            # entry is LRU-touched.
            cube = ctx.tcube_for(plan.table, chosen.spec, lambda: chosen)
        else:
            __, time_column, bucket, value_column, residual = chosen

            def build():
                nonlocal built
                built = True
                return build_temporal_canvas_cube(
                    TableSource(plan.table, ctx, plan.cancel), viewport,
                    time_column, bucket, value_column=value_column,
                    residual_filters=residual)

            cube = ctx.tcube_for(plan.table, chosen, build)
        build_s = time.perf_counter() - t0 if built else 0.0

        result = cube.answer(plan.regions, fragments, query,
                             viewport=viewport)
        result.stats["tcube"].update({
            "built": built,
            "hit": not built,
            "build_s": build_s,
            "build": dict(cube.stats),
        })
        return result
