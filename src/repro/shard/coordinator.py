"""The shard coordinator: fork store scans that rasterize polygons.

Point passes run serial (``docs/raster_join.md`` §8): the bounded store
scan streams its partitions through one canvas in-process.  A fork pays
only where each task is dominated by per-tile or per-block work, so two
entry points remain:

* :func:`scatter_gather_tiles` — the tiled path.  Tiles (not
  partitions) split into contiguous ranges; each range folds its tiles
  (per-tile scanline rasterization included) into a private
  :class:`~repro.core.aggregates.PartialAggregate` + mass vectors, and
  the parent merges region vectors in range order.  With one range —
  the serial decision — the same loop runs in-process.
* :func:`prescatter_blocks` — the pyramid path.  Blocks that neither
  the cache nor a 2x2 child reduction can serve are sharded across
  workers; each returns its freshly scattered planes (the block-cache
  *delta*) and the parent installs them, so the subsequent assembly
  finds every block hot.

**Equality discipline.**  Within a shard, partitions accumulate in
manifest order with unbuffered ufunc.at ops — the serial reference
fold, bit for bit.  Tiles and blocks partition the pixel grid, so
merging per-shard partials in shard order is exact for COUNT
(integer-valued partials), order-free for MIN/MAX, and bitwise for SUM
whenever the values are integer-valued; float SUM and AVG reassociate
within <= 1e-12.

Workers fork over the parent's mmap'd partitions (copy-on-write,
nothing pickled but the task tuples), and each tile shard runs a
:class:`~repro.shard.prefetch.PartitionPrefetcher` so the kernel pages
in partition *i+1* while partition *i* scatters.  Without ``fork``
support every entry point degrades to an in-process loop over the
identical shard code path — same answers, no processes.
"""

from __future__ import annotations

import os
import time

import numpy as np

from ..core.aggregates import (
    BOUNDABLE_AGGREGATES,
    COUNT,
    PartialAggregate,
    canvas_kinds,
)
from ..core.parallel import _even_ranges, _fork_map
from ..core.tiling import fold_tile_join
from ..errors import QueryCancelled
from ..obs.trace import graft, span
from .prefetch import PartitionPrefetcher


def _shard_summary(shards, per_shard, pooled, depth) -> dict:
    issued = sum(s["prefetch"]["issued"] for s in per_shard)
    advised = sum(s["prefetch"]["advised"] for s in per_shard)
    return {
        "count": len(shards),
        "pooled": pooled,
        "prefetch_depth": depth,
        "prefetch_issued": issued,
        "prefetch_hit_fraction": (advised / issued) if issued else 0.0,
        "per_shard": per_shard,
    }


# -- tiled path --------------------------------------------------------------


def scatter_gather_tiles(dataset, survivors, query, regions, viewport,
                         tiles, kinds, decision, cancel):
    """The tiled store scan: contiguous tile ranges per shard, region
    vectors merged in shard order.

    Each shard owns a contiguous slice of the tile list and runs the
    per-tile loop over it (bbox-pruned partition stream, manifest
    order, unbuffered accumulation), folding into a private
    :class:`PartialAggregate` + mass vectors.  The parent merges
    partials shard-by-shard — additive for counts/sums/mass, reduce
    for min/max.  A serial ``decision`` is one range over every tile,
    run in-process: this is the only tile loop the store has.

    ``cancel`` is honored between tiles; fork children cannot observe
    a parent-set token, so the caller rechecks after a pooled run.

    Returns ``(part, mass_in, mass_out, stats, pooled)``.
    """
    # Lazy: ``repro.store`` imports this module.
    from ..store.execute import _accumulate, _empty_canvases

    agg = query.agg
    geometries = list(regions.geometries)
    geom_boxes = [g.bbox for g in geometries]
    infos = dataset.partitions
    n_shards = int(decision["shards"]) if decision["use"] else 1
    ranges = _even_ranges(len(tiles), n_shards)
    depth = int(decision.get("prefetch_depth", 1))
    parent_pid = os.getpid()

    def run_shard(shard_id: int, lo: int, hi: int):
        if os.getpid() != parent_pid:
            dataset._after_fork()
        t0 = time.perf_counter()
        # Fork children inherit the live trace context copy-on-write, so
        # this span nests under the parent's scan span — but its appends
        # land in the child's memory.  The subtree rides home serialized
        # in the merge payload and the parent grafts it (pooled runs
        # only; in-process it attached to the live tree directly).
        with span("shard.scan", shard=shard_id, tiles=hi - lo) as sp:
            part = PartialAggregate.empty(agg, len(regions))
            mass_in = np.zeros(len(regions))
            mass_out = np.zeros(len(regions))
            paged = 0
            prefetch = {"depth": depth, "issued": 0, "advised": 0}
            for tile_vp, col0, row0 in tiles[lo:hi]:
                if cancel is not None and cancel.is_set():
                    raise QueryCancelled(
                        "tiled store scan cancelled between tiles")
                local_ids = [gid for gid, gb in enumerate(geom_boxes)
                             if gb.intersects(tile_vp.bbox)]
                if not local_ids:
                    continue
                touching = [
                    index for index in survivors
                    if infos[index].bbox is None
                    or infos[index].bbox.intersects(tile_vp.bbox)]
                prefetcher = PartitionPrefetcher(dataset, touching, depth)
                canvases = _empty_canvases(kinds, tile_vp.num_pixels)
                for pos, index in enumerate(touching):
                    prefetcher.advance(pos)
                    paged += 1
                    table = dataset.partition_table(index)
                    mask = query.filter_mask(table)
                    values = query.values_for(table)
                    x = table.x[mask]
                    y = table.y[mask]
                    if values is not None:
                        values = values[mask]
                    ix, iy = viewport.pixel_of(x, y)
                    sel = ((ix >= col0) & (ix < col0 + tile_vp.width)
                           & (iy >= row0) & (iy < row0 + tile_vp.height))
                    local_pix = ((iy[sel] - row0) * tile_vp.width
                                 + (ix[sel] - col0))
                    local_vals = (values[sel] if values is not None
                                  else None)
                    _accumulate(canvases, local_pix, local_vals)
                pstats = prefetcher.stats()
                prefetch["issued"] += pstats["issued"]
                prefetch["advised"] += pstats["advised"]
                mass = None
                if agg in BOUNDABLE_AGGREGATES:
                    mass = (canvases["count"] if agg == COUNT
                            else canvases["mass"])
                fold_tile_join(geometries, local_ids, query, tile_vp,
                               canvases, mass, part, mass_in, mass_out)
        sp.set(partitions_paged=paged, pid=os.getpid())
        return part, mass_in, mass_out, {
            "shard": shard_id, "tiles": hi - lo,
            "partitions_paged": paged,
            "time_s": time.perf_counter() - t0,
            "prefetch": prefetch,
            "trace": sp.to_dict(),
        }

    tasks = [(i, lo, hi) for i, (lo, hi) in enumerate(ranges)]
    # The parent-side map span covers pool setup + the blocking wait,
    # so the fork/dispatch cost the child spans cannot see still lands
    # in the trace as a leaf.
    with span("shard.map", shards=len(tasks)):
        results, pooled = _fork_map(run_shard, tasks, len(tasks))

    part = PartialAggregate.empty(agg, len(regions))
    mass_in = np.zeros(len(regions))
    mass_out = np.zeros(len(regions))
    per_shard = []
    paged = 0
    for shard_part, shard_in, shard_out, shard_stats in results:
        # Graft the child-process span subtree for pooled runs; in-process
        # it already attached (grafting would double-count), and either
        # way the payload stays out of the response stats.
        payload = shard_stats.pop("trace", None)
        if pooled:
            graft(payload)
        part.merge(shard_part)
        mass_in += shard_in
        mass_out += shard_out
        paged += shard_stats["partitions_paged"]
        per_shard.append(shard_stats)
    stats = {
        "partitions_paged": paged,
        "shards": _shard_summary(ranges, per_shard, pooled, depth),
    }
    return part, mass_in, mass_out, stats, pooled


# -- pyramid path ------------------------------------------------------------


def _blocks_needing_scatter(ctx, table, query, viewport,
                            derive_sums: bool) -> list[tuple]:
    """Peek-only probe: the blocks assembly would have to scatter.

    Mirrors :func:`~repro.core.pyramid.assemble_canvases`'s preference
    order without touching LRU state or counters — a block is listed
    only when its missing kinds can be served neither from the cache
    nor by a 2x2 reduction of four cached children.
    """
    from ..core.cache import fingerprint
    from ..core.pyramid import _ALWAYS_DERIVABLE, block_key, grid_block_tiles

    grid = viewport.grid
    level = viewport.level
    kinds = canvas_kinds(query.agg)
    table_fp = fingerprint(table)
    cache = ctx.cache

    def key(kind, lvl, bx, by):
        return block_key(table_fp, query, kind, grid, lvl, bx, by)

    needs = []
    for bx, by, _view_sl, _block_sl in grid_block_tiles(viewport):
        missing = tuple(k for k in kinds
                        if cache.peek(key(k, level, bx, by)) is None)
        if not missing:
            continue
        if level > 0 and all(k in _ALWAYS_DERIVABLE or derive_sums
                             for k in missing):
            if all(cache.peek(key(k, level - 1, 2 * bx + rx,
                                  2 * by + ry)) is not None
                   for k in missing for ry in (0, 1) for rx in (0, 1)):
                continue  # assembly will derive it; nothing to scatter
        needs.append((bx, by, missing))
    return needs


def prescatter_blocks(ctx, dataset, table, query, viewport, scatter,
                      scanned, decision, cancel) -> dict | None:
    """Scatter uncovered pyramid blocks across shards, install deltas.

    Forked shards each scatter a contiguous slice of the
    missing-block list and hand the parent their fresh planes — the
    block-cache *delta* — which the parent installs under the same
    keys the serial scatter would have used, so the following
    :func:`~repro.core.pyramid.assemble_canvases` pass finds them hot.
    Each plane is produced by the same ``scatter`` closure the serial
    path runs, so the installed blocks are bitwise-identical.

    ``scanned`` is the scatter closure's accounting dict; the shards'
    local copies (fork children start from the parent's pristine
    state) merge back so ``points_after_filter`` stays truthful.
    Returns the ``stats["shards"]`` payload, or ``None`` when there
    was nothing to scatter.
    """
    needs = _blocks_needing_scatter(ctx, table, query, viewport,
                                    derive_sums=False)
    if not needs:
        return None
    from ..core.pyramid import block_key, fingerprint
    n_shards = min(int(decision["shards"]), len(needs))
    ranges = _even_ranges(len(needs), n_shards)
    parent_pid = os.getpid()

    def run_shard(shard_id: int, lo: int, hi: int):
        if os.getpid() != parent_pid:
            dataset._after_fork()
        t0 = time.perf_counter()
        # See scatter_gather_tiles.run_shard: the span subtree rides
        # home serialized in the merge payload for pooled runs.
        with span("shard.prescatter", shard=shard_id,
                  blocks=hi - lo) as sp:
            base_partitions = scanned["partitions"]
            out = []
            for bx, by, missing in needs[lo:hi]:
                if cancel is not None and cancel.is_set():
                    raise QueryCancelled(
                        "sharded block scatter cancelled between blocks")
                planes, points = scatter(bx, by, missing)
                out.append((bx, by, planes, points))
            # Delta relative to entry: in a fork child this is the
            # shard's own contribution (the parent's dict is
            # untouched); in the in-process fallback the shared closure
            # already accumulated it, and the parent must not add it
            # again.
            delta = scanned["partitions"] - base_partitions
        sp.set(pid=os.getpid())
        return out, dict(scanned["after_filter"]), delta, {
            "shard": shard_id, "blocks": hi - lo,
            "time_s": time.perf_counter() - t0,
            "prefetch": {"depth": 0, "issued": 0, "advised": 0},
            "trace": sp.to_dict(),
        }

    tasks = [(i, lo, hi) for i, (lo, hi) in enumerate(ranges)]
    with span("shard.map", shards=len(tasks)):
        results, pooled = _fork_map(run_shard, tasks, len(tasks))

    grid = viewport.grid
    level = viewport.level
    table_fp = fingerprint(table)
    per_shard = []
    blocks_installed = 0
    for out, after_filter, partitions, shard_stats in results:
        payload = shard_stats.pop("trace", None)
        if pooled:
            graft(payload)
        for bx, by, planes, _points in out:
            for kind, plane in planes.items():
                ctx.cache.put(
                    block_key(table_fp, query, kind, grid, level, bx, by),
                    plane)
            blocks_installed += 1
        if pooled:
            # A partition scanned by several shards records the same
            # surviving-row count in each — dict-merge keeps it once.
            scanned["after_filter"].update(after_filter)
            scanned["partitions"] += partitions
        per_shard.append(shard_stats)
    summary = _shard_summary(ranges, per_shard, pooled,
                             int(decision.get("prefetch_depth", 1)))
    summary["blocks_prescattered"] = blocks_installed
    return summary
