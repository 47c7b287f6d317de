"""Out-of-core execution: raster joins over pruned store partitions.

The raster join is partition-pipelined (3DPipe-style): zone maps prune
the manifest, then the surviving partitions stream one at a time
through filter → project → scatter into a **shared canvas**, and the
polygon/gather passes run once against the finished canvases.  Peak
memory is O(partition + canvas), never O(dataset).

**Bitwise equality with the in-memory engine is a design invariant,
not an accident.**  The in-memory point pass accumulates each canvas
with one ``np.bincount`` over the whole table — a strictly
element-sequential ``canvas[pix[i]] += v[i]`` loop.  ``np.add.at`` is
the same sequential loop, so continuing it partition-by-partition in
manifest order reproduces the exact floating-point fold of one
bincount over the concatenated table (COUNT partials are
integer-valued, hence exact under any fold; MIN/MAX are order-free
reductions).  Everything downstream of the canvases (gather join,
boundary-mass bounds) is byte-identical shared code.

The partition scan is a point pass, so it is serial (see
:mod:`repro.core.parallel`).  Forks survive only where a task
rasterizes polygons or scatters whole blocks — the tiled path's tile
ranges and the pyramid path's cold blocks (:mod:`repro.shard`) — and
their per-shard merges are exact for COUNT/MIN/MAX and within the usual
<= 1e-12 reassociation tolerance for SUM/AVG (bitwise when values are
integer-valued).

Three paths, mirroring the in-memory backends:

* ``store-bounded`` — one canvas at the planned resolution;
* ``store-tiled``   — virtual canvases beyond the texture cap; each
  tile's canvases are accumulated from the partitions whose bbox
  touches the tile, then folded through the *same*
  :func:`~repro.core.tiling.fold_tile_join` the in-memory tiled join
  uses;
* ``store-pyramid`` — a grid-snapped viewport assembles from cached
  canvas blocks and streams partitions only for the uncovered ones.
"""

from __future__ import annotations

import time

import numpy as np

from .. import kernels
from ..core.aggregates import BOUNDABLE_AGGREGATES, COUNT, SUM, canvas_kinds
from ..core.bounded import _join_covered
from ..core.bounds import (
    boundary_mass_bounds,
    epsilon_for_viewport,
    resolution_for_epsilon,
)
from ..core.pyramid import GridViewport, assembled_bounded_join
from ..core.result import AggregationResult
from ..core.tiling import make_tiles
from ..errors import QueryCancelled, QueryError
from ..geometry import BBox
from ..obs.trace import span
from ..raster import Viewport
from ..shard import prescatter_blocks, scatter_gather_tiles
from .dataset import Dataset
from .format import zone_min
from .pruner import PartitionPruner

#: Methods the out-of-core path accepts (the store plans its own
#: bounded/tiled split; index and cube backends need resident data).
STORE_METHODS = ("auto", "bounded", "tiled")

DEFAULT_TILE_PIXELS = 1024

#: Hard ceiling for epsilon-derived virtual resolutions on the tiled
#: path (2^20 pixels along the long axis ~ a trillion-pixel canvas).
MAX_VIRTUAL_RESOLUTION = 1 << 20


# -- canvas accumulation -----------------------------------------------------


def _empty_canvases(kinds, num_pixels: int) -> dict[str, np.ndarray]:
    fills = {"min": np.inf, "max": -np.inf}
    return {kind: np.full(num_pixels, fills.get(kind, 0.0))
            for kind in kinds}


def _project_partition(table, query, viewport
                       ) -> tuple[np.ndarray, np.ndarray | None, int]:
    """Filter + project one partition exactly like
    :func:`repro.core.bounded.rasterize_points` does for the full
    table — same masks, same gathers, same float ops."""
    keep = np.flatnonzero(query.filter_mask(table))
    after_filter = len(keep)
    pixel_ids, valid = viewport.pixel_ids_of(table.x[keep], table.y[keep])
    if not valid.all():
        keep = keep[valid]
        pixel_ids = pixel_ids[valid]
    values = query.values_for(table)
    if values is not None:
        values = values[keep]
    return pixel_ids, values, after_filter


def _accumulate(canvases: dict[str, np.ndarray], pixel_ids: np.ndarray,
                values: np.ndarray | None) -> None:
    """Continue the global element-sequential scatter with one
    partition's points.

    ``scatter_add_at`` (``np.add.at``, or the jitted loop when the
    numba kernel is selected) is unbuffered and applies contributions
    in element order — the same loop ``np.bincount`` runs — so
    chaining it across partitions in manifest order equals one
    bincount over the concatenated table, bit for bit.  COUNT uses
    per-partition bincount partials: integer-valued floats add exactly
    under any grouping.
    """
    kernel = kernels.active()
    if "count" in canvases:
        canvases["count"] += np.bincount(pixel_ids,
                                         minlength=len(canvases["count"]))
    if "sum" in canvases:
        kernel.scatter_add_at(canvases["sum"], pixel_ids, values)
    if "mass" in canvases:
        kernel.scatter_add_at(canvases["mass"], pixel_ids, np.abs(values))
    if len(pixel_ids):
        if "min" in canvases:
            np.minimum.at(canvases["min"], pixel_ids, values)
        if "max" in canvases:
            np.maximum.at(canvases["max"], pixel_ids, values)


def _sum_values_nonnegative(dataset: Dataset, survivors: list[int],
                            value_column: str) -> bool:
    """Zone-map proof that every surviving value is >= 0 and non-NaN.

    When it holds, the sum canvas doubles as the boundary-mass canvas
    (|v| == v), mirroring the in-memory fast path.  When it cannot be
    proven the scan accumulates a separate |v| canvas — which is still
    bitwise-identical to the sum canvas whenever the values turn out
    non-negative, so conservatism never costs equality.
    """
    for index in survivors:
        zone = dataset.partitions[index].zones.get(value_column)
        if zone is None:
            return False
        if int(zone.get("nan_count", 0)) > 0:
            return False
        lo = zone_min(zone)
        if lo is None or lo < 0:
            return False
    return True


# -- the scan ----------------------------------------------------------------


def _scan_canvases(dataset: Dataset, survivors: list[int], query,
                   viewport: Viewport, kinds, cancel
                   ) -> tuple[dict[str, np.ndarray], dict]:
    """The partition scan: the bitwise-reference accumulation."""
    canvases = _empty_canvases(kinds, viewport.num_pixels)
    after_filter = in_viewport = 0
    for index in survivors:
        if cancel is not None and cancel.is_set():
            raise QueryCancelled("store scan cancelled between partitions")
        table = dataset.partition_table(index)
        pixel_ids, values, n_filter = _project_partition(
            table, query, viewport)
        after_filter += n_filter
        in_viewport += len(pixel_ids)
        _accumulate(canvases, pixel_ids, values)
    stats = {"points_after_filter": after_filter,
             "points_in_viewport": in_viewport}
    return canvases, stats


# -- entry point -------------------------------------------------------------


def execute_dataset(ctx, plan, method: str = "auto") -> AggregationResult:
    """Run one spatial aggregation out-of-core over a :class:`Dataset`.

    Mirrors the engine contract: fills ``plan.decision`` (the
    ``stats["plan"]`` payload) and returns a result carrying
    ``stats["store"]`` with partition pruning and mount accounting.
    """
    t0 = time.perf_counter()
    dataset: Dataset = plan.table
    regions, query = plan.regions, plan.query
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


def _plan_payload(ctx, plan, dataset, prune, chosen, resolution,
                  shard_decision) -> dict:
    return {
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
        # Partition scans are point passes (see repro.core.parallel).
        "parallel": {"use": False, "reason": "point passes run serial"},
        "shards": shard_decision,
        "degraded": None,
    }


def _execute_bounded(ctx, dataset, pruner, plan,
                     resolution) -> AggregationResult:
    regions, query = plan.regions, plan.query
    viewport = plan.viewport or ctx.plan_viewport(regions, resolution,
                                                  None)
    with span("store.prune") as sp:
        prune = pruner.prune(query.filters, viewport)
    sp.set(scanned=len(prune.indices), pruned=prune.pruned)
    survivors = prune.indices

    agg = query.agg
    nonneg = (agg == SUM and _sum_values_nonnegative(
        dataset, survivors, query.value_column))
    with_mass = agg == SUM and not nonneg
    kinds = canvas_kinds(agg, with_mass)

    plan.decision = _plan_payload(
        ctx, plan, dataset, prune, "store-bounded", resolution,
        {"use": False, "reason": "the bounded scan is a point pass"})

    t_points0 = time.perf_counter()
    with span("store.scan", mode="serial", partitions=len(survivors)):
        canvases, scan_stats = _scan_canvases(
            dataset, survivors, query, viewport, kinds, plan.cancel)
    t_points = time.perf_counter() - t_points0

    t_join0 = time.perf_counter()
    with span("store.join"):
        fragments = ctx.fragments_for(regions, viewport)
        estimate = _join_covered(fragments, canvases, agg)
        lower = upper = None
        if agg in BOUNDABLE_AGGREGATES:
            if agg == COUNT:
                mass = canvases["count"]
            elif with_mass:
                mass = canvases["mass"]
            else:
                # Proven non-negative: |v| == v, the sum canvas is the
                # mass.
                mass = canvases["sum"]
            lower, upper = boundary_mass_bounds(fragments, estimate, mass)
    t_join = time.perf_counter() - t_join0

    stats = {
        "store": prune.stats(),
        "points_total": len(dataset),
        **scan_stats,
        "canvas_pixels": viewport.num_pixels,
        "epsilon_world_units": epsilon_for_viewport(viewport),
        "time_point_pass_s": t_points,
        "time_join_s": t_join,
        "parallel": {"mode": "serial", "pooled": False, "workers": 1},
    }
    return AggregationResult(
        regions=regions, values=estimate,
        method="store-bounded-raster-join",
        lower=lower, upper=upper, exact=False, stats=stats)


def _store_block_scatter(dataset, survivors, query, viewport):
    """Block scatter source streaming store partitions.

    Partitions stream in manifest order and accumulate with the same
    unbuffered ops as :func:`_accumulate`, so each pixel's contribution
    sequence matches the serial reference scan bit for bit (the block
    merely restricts *which* pixels are accumulated).  ``survivors``
    must be pruned by **filters only** — a block cached at a viewport
    edge covers pixels outside that viewport, and viewport pruning
    would silently drop their mass, poisoning the block for the next
    pan that exposes them.
    """
    grid = viewport.grid
    level = viewport.level
    size = grid.block
    scale = 1 << level
    infos = dataset.partitions
    # after_filter keyed by partition — a partition paged for several
    # blocks counts its surviving rows once, like the reference scan.
    scanned = {"after_filter": {}, "partitions": 0}

    def scatter(bx, by, kinds):
        c0 = bx * size * scale
        r0 = by * size * scale
        bbox = BBox(grid.x0 + (c0 - 1) * grid.pw,
                    grid.y0 + (r0 - 1) * grid.ph,
                    grid.x0 + (c0 + size * scale + 1) * grid.pw,
                    grid.y0 + (r0 + size * scale + 1) * grid.ph)
        flat = _empty_canvases(list(kinds), size * size)
        points = 0
        for index in survivors:
            info = infos[index]
            if info.bbox is not None and not info.bbox.intersects(bbox):
                continue
            scanned["partitions"] += 1
            table = dataset.partition_table(index)
            rows = np.flatnonzero(query.filter_mask(table))
            scanned["after_filter"][index] = len(rows)
            gx = np.floor((table.x[rows] - grid.x0)
                          / grid.pw).astype(np.int64)
            gy = np.floor((table.y[rows] - grid.y0)
                          / grid.ph).astype(np.int64)
            lx = (gx >> level) - bx * size
            ly = (gy >> level) - by * size
            keep = (lx >= 0) & (lx < size) & (ly >= 0) & (ly < size)
            if not keep.all():
                rows, lx, ly = rows[keep], lx[keep], ly[keep]
            pix = ly * size + lx
            values = query.values_for(table)
            if values is not None:
                values = values[rows]
            _accumulate(flat, pix, values)
            points += len(pix)
        return ({kind: plane.reshape(size, size)
                 for kind, plane in flat.items()}, points)

    return scatter, scanned


def _execute_assembled(ctx, dataset, pruner, plan,
                       resolution) -> AggregationResult:
    """The bounded store path under a grid-snapped viewport: canvases
    assemble from cached pyramid blocks and only uncovered blocks
    stream partitions.  Answers are bitwise-equal to
    :func:`_execute_bounded`'s serial reference (SUM's mass canvas is
    the ``|v|`` scatter, which *is* the sum canvas bitwise whenever the
    values are non-negative — the fast path the direct scan proves via
    zone maps)."""
    regions, query = plan.regions, plan.query
    viewport: GridViewport = plan.viewport
    # Filters only — block content must be viewport-independent (see
    # _store_block_scatter); the viewport still prunes the per-block
    # partition stream via the block/partition bbox test.
    with span("store.prune") as sp:
        prune = pruner.prune(query.filters, None)
    sp.set(scanned=len(prune.indices), pruned=prune.pruned)
    shard_decision = ctx.parallel.decide_shards(len(prune.indices),
                                                prune.rows_scanned)
    plan.decision = _plan_payload(ctx, plan, dataset, prune,
                                  "store-pyramid", resolution,
                                  shard_decision)

    scatter, scanned = _store_block_scatter(dataset, prune.indices, query,
                                            viewport)
    shard_stats = None
    if shard_decision["use"]:
        # Scatter the uncovered blocks across forked shards first; the
        # returned block-cache deltas install under the same keys, so
        # the assembly below finds every block hot and the answer stays
        # bitwise-identical to the serial scatter.
        shard_stats = prescatter_blocks(
            ctx, dataset, dataset, query, viewport, scatter, scanned,
            shard_decision, plan.cancel)
    # Coarse SUM/mass blocks are never derived by reduction out-of-core
    # (no integer-valuedness proof without scanning); COUNT/MIN/MAX
    # still derive.
    with span("store.join"):
        result = assembled_bounded_join(
            ctx, dataset, regions, query, viewport,
            fragments=ctx.fragments_for(regions, viewport),
            scatter=scatter, derive_sums=False,
            method="store-pyramid-raster-join")
    result.stats["points_after_filter"] = sum(
        scanned["after_filter"].values())
    result.stats["store"] = prune.stats()
    result.stats["store"]["partitions_paged"] = scanned["partitions"]
    if shard_stats is not None:
        result.stats["shards"] = shard_stats
        pooled = shard_stats["pooled"]
        result.stats["parallel"] = {
            "mode": "parallel" if pooled else "serial", "pooled": pooled,
            "workers": shard_decision["shards"],
            "reason": "sharded block pre-scatter"}
    else:
        result.stats["parallel"] = {"mode": "serial", "pooled": False,
                                    "workers": 1,
                                    "reason": "pyramid assembly"}
    return result


def _execute_tiled(ctx, dataset, pruner, plan, resolution,
                   tile_pixels: int = DEFAULT_TILE_PIXELS
                   ) -> AggregationResult:
    regions, query = plan.regions, plan.query
    agg = query.agg
    viewport = Viewport.fit(regions.bbox, resolution)
    with span("store.prune") as sp:
        prune = pruner.prune(query.filters, viewport)
    sp.set(scanned=len(prune.indices), pruned=prune.pruned)
    survivors = prune.indices

    tiles = make_tiles(viewport, tile_pixels)
    kinds = canvas_kinds(agg)
    shard_decision = ctx.parallel.decide_shards(len(survivors),
                                                prune.rows_scanned)
    if shard_decision["use"] and len(tiles) <= 1:
        shard_decision = {**shard_decision, "use": False,
                          "reason": "single tile"}
    plan.decision = _plan_payload(ctx, plan, dataset, prune, "store-tiled",
                                  resolution, shard_decision)

    # One tile loop for both decisions: a serial decision is a single
    # in-process range, a sharded one fans contiguous tile ranges out
    # across fork workers and merges region vectors in shard order.
    with span("store.scan", mode="tiled", tiles=len(tiles)):
        part, mass_in, mass_out, scan_stats, pooled = scatter_gather_tiles(
            dataset, survivors, query, regions, viewport, tiles, kinds,
            shard_decision, plan.cancel)
    if plan.cancel is not None and plan.cancel.is_set():
        raise QueryCancelled("tiled store scan cancelled")
    estimate = part.finalize()
    lower = upper = None
    if agg in BOUNDABLE_AGGREGATES:
        lower = estimate - mass_in
        upper = estimate + mass_out

    stats = {
        "store": prune.stats(),
        "points_total": len(dataset),
        "tiles": len(tiles),
        "resolution": resolution,
        "tile_pixels": tile_pixels,
        "partitions_paged": scan_stats["partitions_paged"],
        "epsilon_world_units": viewport.pixel_diag,
        "parallel": {"mode": "parallel" if pooled else "serial",
                     "pooled": pooled,
                     "workers": scan_stats["shards"]["count"]},
    }
    if shard_decision["use"]:
        stats["shards"] = scan_stats["shards"]
    return AggregationResult(
        regions=regions, values=estimate,
        method="store-tiled-bounded-raster-join",
        lower=lower, upper=upper, exact=False, stats=stats)
