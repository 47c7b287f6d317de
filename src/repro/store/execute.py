"""Out-of-core execution: the raster joins over a store's partitions.

The store is a point source, not a second engine: zone maps prune the
manifest, the survivors become a
:class:`~repro.core.pipeline.DatasetSource`, and the same joins the
in-memory backends run take it from there.  The source mounts each
partition only when it can reach the sink and streams the survivors in
manifest order, so peak memory is O(partition + canvas), never
O(dataset), and every answer is bitwise the in-memory engine's over
``Dataset.to_table()`` (the argument is in :mod:`repro.core.pipeline`).

Three paths, mirroring the in-memory backends:

* ``store-bounded`` — :func:`~repro.core.bounded.bounded_raster_join`
  on one canvas at the planned resolution;
* ``store-tiled``   — :func:`~repro.core.tiling.tiled_bounded_raster_join`
  over virtual canvases beyond the texture cap;
* ``store-pyramid`` — :func:`~repro.core.pyramid.assembled_bounded_join`
  under a grid-snapped viewport: one pass fills every missing block.
"""

from __future__ import annotations

import time

from ..core.bounded import bounded_raster_join
from ..core.bounds import resolution_for_epsilon
from ..core.pipeline import DatasetSource
from ..core.pyramid import GridViewport, assembled_bounded_join
from ..core.result import AggregationResult
from ..core.tiling import tiled_bounded_raster_join
from ..errors import QueryError
from ..obs.trace import span
from ..raster import Viewport
from .dataset import Dataset
from .pruner import PartitionPruner

#: Methods the out-of-core path accepts (the store plans its own
#: bounded/tiled split; index and cube backends need resident data).
STORE_METHODS = ("auto", "bounded", "tiled")

DEFAULT_TILE_PIXELS = 1024

#: Hard ceiling for epsilon-derived virtual resolutions on the tiled
#: path (2^20 pixels along the long axis ~ a trillion-pixel canvas).
MAX_VIRTUAL_RESOLUTION = 1 << 20


def execute_dataset(ctx, plan, method: str = "auto") -> AggregationResult:
    """Run one spatial aggregation out-of-core over a :class:`Dataset`.

    Mirrors the engine contract: fills ``plan.decision`` (the
    ``stats["plan"]`` payload) and returns a result carrying
    ``stats["store"]`` with partition pruning and mount accounting.
    """
    t0 = time.perf_counter()
    dataset: Dataset = plan.table
    regions = plan.regions
    if method not in STORE_METHODS:
        raise QueryError(
            f"method {method!r} is not available out-of-core; a dataset "
            f"store accepts {STORE_METHODS} (materialize with "
            f"Dataset.to_table() for the full backend registry)")
    if plan.exact:
        raise QueryError(
            "exact=True is not supported out-of-core; materialize with "
            "Dataset.to_table() for exact execution")

    # -- plan the canvas ---------------------------------------------------
    if plan.epsilon is not None:
        resolution = resolution_for_epsilon(
            regions.bbox, plan.epsilon,
            max_resolution=MAX_VIRTUAL_RESOLUTION)
    elif plan.resolution is not None:
        resolution = int(plan.resolution)
    elif plan.viewport is not None:
        resolution = max(plan.viewport.width, plan.viewport.height)
    else:
        resolution = ctx.default_resolution

    over_cap = (plan.viewport is None
                and resolution > ctx.max_canvas_resolution)
    if method == "tiled":
        if plan.viewport is not None:
            raise QueryError(
                "the tiled store path plans its own viewport; pass "
                "resolution/epsilon instead")
        tiled = True
    elif method == "bounded":
        if over_cap:
            raise QueryError(
                f"resolution {resolution} exceeds the canvas cap "
                f"{ctx.max_canvas_resolution}; use method='tiled'")
        tiled = False
    else:
        tiled = over_cap

    pruner = PartitionPruner(dataset)
    if tiled:
        result = _execute_tiled(ctx, dataset, pruner, plan, resolution)
    elif isinstance(plan.viewport, GridViewport):
        result = _execute_assembled(ctx, dataset, pruner, plan, resolution)
    else:
        result = _execute_bounded(ctx, dataset, pruner, plan, resolution)
    result.stats["store"]["dataset"] = dataset.name
    result.stats["store"]["path"] = str(dataset.path)
    result.stats["store"]["mounted"] = dataset.mount_stats()
    result.stats["time_total_s"] = time.perf_counter() - t0
    return result


def _source(ctx, dataset, pruner, plan, viewport, chosen: str,
            resolution: int):
    """Prune → the survivors as a point source, and the plan payload.

    ``viewport`` None prunes by filters only: a pyramid block cached at
    a viewport edge covers pixels outside that viewport, and viewport
    pruning would drop their mass, poisoning the block for the next pan
    that exposes them.  The missing blocks' own boxes still skip
    partitions during the pass.
    """
    with span("store.prune") as sp:
        prune = pruner.prune(plan.query.filters, viewport)
    sp.set(scanned=len(prune.indices), pruned=prune.pruned)
    plan.decision = {
        "inputs": {
            "n_points": len(dataset),
            "n_regions": len(plan.regions),
            "agg": plan.query.agg,
            "n_filters": len(plan.query.filters),
            "resolution": resolution,
            "canvas_cap": ctx.max_canvas_resolution,
            "store_partitions": prune.total,
            "store_scanned": len(prune.indices),
            "rows_scanned": prune.rows_scanned,
        },
        "decision": {"chosen": chosen, "planned": False,
                     "requested": plan.method},
        "degraded": None,
    }
    return DatasetSource(dataset, prune.indices, plan.cancel), prune


def _store_result(result: AggregationResult, source, prune,
                  method: str) -> AggregationResult:
    result.method = method
    result.stats["store"] = prune.stats()
    result.stats["store"]["partitions_paged"] = source.paged
    return result


def _execute_bounded(ctx, dataset, pruner, plan,
                     resolution) -> AggregationResult:
    viewport = plan.viewport or ctx.plan_viewport(plan.regions, resolution,
                                                  None)
    source, prune = _source(ctx, dataset, pruner, plan, viewport,
                            "store-bounded", resolution)
    result = bounded_raster_join(
        source, plan.regions, plan.query, viewport,
        fragments=ctx.fragments_for(plan.regions, viewport))
    return _store_result(result, source, prune, "store-bounded-raster-join")


def _execute_assembled(ctx, dataset, pruner, plan,
                       resolution) -> AggregationResult:
    viewport: GridViewport = plan.viewport
    source, prune = _source(ctx, dataset, pruner, plan, None,
                            "store-pyramid", resolution)
    result = assembled_bounded_join(
        ctx, source, plan.regions, plan.query, viewport,
        fragments=ctx.fragments_for(plan.regions, viewport))
    return _store_result(result, source, prune, "store-pyramid-raster-join")


def _execute_tiled(ctx, dataset, pruner, plan, resolution,
                   tile_pixels: int = DEFAULT_TILE_PIXELS
                   ) -> AggregationResult:
    viewport = Viewport.fit(plan.regions.bbox, resolution)
    source, prune = _source(ctx, dataset, pruner, plan, viewport,
                            "store-tiled", resolution)
    with span("store.scan", mode="tiled") as sp:
        result = tiled_bounded_raster_join(
            source, plan.regions, plan.query, resolution,
            tile_pixels=tile_pixels, cancel=plan.cancel)
    sp.set(tiles=result.stats["tiles"])
    result.stats["partitions_paged"] = source.paged
    return _store_result(result, source, prune,
                         "store-tiled-bounded-raster-join")
