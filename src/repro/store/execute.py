"""Out-of-core execution: raster joins over pruned store partitions.

The raster join is partition-pipelined (3DPipe-style): zone maps prune
the manifest, then the surviving partitions stream one at a time, in
manifest order, through filter → project → scatter into one **shared
output**, and the polygon/gather passes run against the finished
canvases.  Peak memory is O(partition + canvas), never O(dataset).
Everything runs in this process: each path streams a partition at most
once per canvas it fills, and no path forks.

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

Three paths, mirroring the in-memory backends:

* ``store-bounded`` — one canvas at the planned resolution;
* ``store-tiled``   — virtual canvases beyond the texture cap; tile by
  tile, the partitions whose bbox touches the tile accumulate into the
  tile's canvases, which fold through the *same*
  :func:`~repro.core.tiling.fold_tile_join` the in-memory tiled join
  uses;
* ``store-pyramid`` — a grid-snapped viewport assembles from cached
  canvas blocks; all of a frame's uncovered blocks are filled by one
  pass over the partitions into one ``blocks x block²`` canvas per
  kind.  Blocks partition the pixel lattice, so every pixel still
  receives its contributions in (manifest order, row order) — the
  planes are bitwise what a per-block scan produces.
"""

from __future__ import annotations

import time

import numpy as np

from .. import kernels
from ..core.aggregates import (
    BOUNDABLE_AGGREGATES,
    COUNT,
    SUM,
    PartialAggregate,
    canvas_kinds,
)
from ..core.bounded import _join_covered
from ..core.bounds import (
    boundary_mass_bounds,
    epsilon_for_viewport,
    resolution_for_epsilon,
)
from ..core.pyramid import (
    GridViewport,
    assembled_bounded_join,
    padded_block_bbox,
)
from ..core.result import AggregationResult
from ..core.tiling import fold_tile_join, make_tiles
from ..errors import QueryCancelled, QueryError
from ..obs.trace import span
from ..raster import Viewport
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


def _plan_payload(ctx, plan, dataset, prune, chosen, resolution) -> dict:
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

    plan.decision = _plan_payload(ctx, plan, dataset, prune,
                                  "store-bounded", resolution)

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
    }
    return AggregationResult(
        regions=regions, values=estimate,
        method="store-bounded-raster-join",
        lower=lower, upper=upper, exact=False, stats=stats)


def _store_block_scatter(dataset, survivors, query, viewport, cancel):
    """Block scatter source streaming store partitions — one pass per
    frame, whatever the number of missing blocks.

    The returned ``scatter(blocks)`` pages each surviving partition at
    most once, in manifest order, skipping it only when its bbox meets
    none of the blocks' padded bboxes.  Its filtered rows map to (block
    slot, local pixel) through one lookup table and accumulate with
    :func:`_accumulate` into one flat ``len(blocks) x block²`` canvas
    per kind.  Blocks partition the pixel lattice, so each pixel sees
    its contributions in (manifest order, row order) — the serial
    reference fold, bit for bit.  Each block gets copies of only its
    own missing kinds.  ``cancel`` is checked between partitions.

    ``survivors`` must be pruned by **filters only** — a block cached
    at a viewport edge covers pixels outside that viewport, and
    viewport pruning would silently drop their mass, poisoning the
    block for the next pan that exposes them.
    """
    grid = viewport.grid
    level = viewport.level
    size = grid.block
    num = size * size
    infos = dataset.partitions
    scanned = {"after_filter": 0, "partitions": 0}

    def scatter(blocks):
        boxes = [padded_block_bbox(grid, level, bx, by)
                 for bx, by, _kinds in blocks]
        kinds = tuple(dict.fromkeys(k for *_, missing in blocks
                                    for k in missing))
        bxs = np.array([b[0] for b in blocks], dtype=np.int64)
        bys = np.array([b[1] for b in blocks], dtype=np.int64)
        bx0, by0 = int(bxs.min()), int(bys.min())
        # Slot of each missing block in the flat canvases; -1 elsewhere.
        slot_of = np.full((int(bys.max()) - by0 + 1,
                           int(bxs.max()) - bx0 + 1), -1, dtype=np.int64)
        slot_of[bys - by0, bxs - bx0] = np.arange(len(blocks))
        flat = _empty_canvases(kinds, len(blocks) * num)
        points = paged = 0
        for index in survivors:
            info = infos[index]
            if info.bbox is not None and not any(
                    info.bbox.intersects(box) for box in boxes):
                continue
            if cancel is not None and cancel.is_set():
                raise QueryCancelled(
                    "pyramid block scatter cancelled between partitions")
            paged += 1
            table = dataset.partition_table(index)
            rows = np.flatnonzero(query.filter_mask(table))
            scanned["after_filter"] += len(rows)
            px = np.floor((table.x[rows] - grid.x0)
                          / grid.pw).astype(np.int64) >> level
            py = np.floor((table.y[rows] - grid.y0)
                          / grid.ph).astype(np.int64) >> level
            cx = px // size - bx0
            cy = py // size - by0
            keep = ((cx >= 0) & (cx < slot_of.shape[1])
                    & (cy >= 0) & (cy < slot_of.shape[0]))
            slot = np.full(len(rows), -1, dtype=np.int64)
            slot[keep] = slot_of[cy[keep], cx[keep]]
            keep = slot >= 0
            if not keep.all():
                rows, px, py, slot = rows[keep], px[keep], py[keep], slot[keep]
            pix = slot * num + (py % size) * size + px % size
            values = query.values_for(table)
            if values is not None:
                values = values[rows]
            _accumulate(flat, pix, values)
            points += len(pix)
        scanned["partitions"] += paged
        planes = [{kind: flat[kind][slot * num:(slot + 1) * num]
                   .reshape(size, size).copy() for kind in missing}
                  for slot, (*_, missing) in enumerate(blocks)]
        return planes, {"partitions": paged, "points": points}

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
    # _store_block_scatter); the missing blocks' bboxes still prune the
    # partition stream.
    with span("store.prune") as sp:
        prune = pruner.prune(query.filters, None)
    sp.set(scanned=len(prune.indices), pruned=prune.pruned)
    plan.decision = _plan_payload(ctx, plan, dataset, prune,
                                  "store-pyramid", resolution)

    scatter, scanned = _store_block_scatter(dataset, prune.indices, query,
                                            viewport, plan.cancel)
    # Coarse SUM/mass blocks are never derived by reduction out-of-core
    # (no integer-valuedness proof without scanning); COUNT/MIN/MAX
    # still derive.
    with span("store.join"):
        result = assembled_bounded_join(
            ctx, dataset, regions, query, viewport,
            fragments=ctx.fragments_for(regions, viewport),
            scatter=scatter, derive_sums=False,
            method="store-pyramid-raster-join")
    result.stats["points_after_filter"] = scanned["after_filter"]
    result.stats["store"] = prune.stats()
    result.stats["store"]["partitions_paged"] = scanned["partitions"]
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
    plan.decision = _plan_payload(ctx, plan, dataset, prune, "store-tiled",
                                  resolution)

    infos = dataset.partitions
    tiles = make_tiles(viewport, tile_pixels)
    kinds = canvas_kinds(agg)
    geometries = list(regions.geometries)
    geom_boxes = [g.bbox for g in geometries]
    part = PartialAggregate.empty(agg, len(regions))
    mass_in = np.zeros(len(regions))
    mass_out = np.zeros(len(regions))
    paged = 0
    with span("store.scan", mode="tiled", tiles=len(tiles)):
        for tile_vp, col0, row0 in tiles:
            if plan.cancel is not None and plan.cancel.is_set():
                raise QueryCancelled(
                    "tiled store scan cancelled between tiles")
            local_ids = [gid for gid, gb in enumerate(geom_boxes)
                         if gb.intersects(tile_vp.bbox)]
            if not local_ids:
                continue
            canvases = _empty_canvases(kinds, tile_vp.num_pixels)
            for index in prune.indices:
                bbox = infos[index].bbox
                if bbox is not None and not bbox.intersects(tile_vp.bbox):
                    continue
                paged += 1
                table = dataset.partition_table(index)
                mask = query.filter_mask(table)
                values = query.values_for(table)
                if values is not None:
                    values = values[mask]
                ix, iy = viewport.pixel_of(table.x[mask], table.y[mask])
                sel = ((ix >= col0) & (ix < col0 + tile_vp.width)
                       & (iy >= row0) & (iy < row0 + tile_vp.height))
                local_pix = ((iy[sel] - row0) * tile_vp.width
                             + (ix[sel] - col0))
                _accumulate(canvases, local_pix,
                            values[sel] if values is not None else None)
            mass = None
            if agg in BOUNDABLE_AGGREGATES:
                mass = canvases["count" if agg == COUNT else "mass"]
            fold_tile_join(geometries, local_ids, query, tile_vp,
                           canvases, mass, part, mass_in, mass_out)
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
        "partitions_paged": paged,
        "epsilon_world_units": viewport.pixel_diag,
    }
    return AggregationResult(
        regions=regions, values=estimate,
        method="store-tiled-bounded-raster-join",
        lower=lower, upper=upper, exact=False, stats=stats)
