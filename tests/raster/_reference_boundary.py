"""Test-only oracle: the per-pixel-key boundary cover, frozen.

This is the grid traversal the polygon pass used before it emitted
boundary runs: every grid piece of every edge marks one key
``polygon * num_pixels + pixel``, every crossing or vertex on a grid
line marks its neighbours too, and one sort dedupes the keys.  It walks
every grid line an edge crosses, on-screen or not, so keep the scenes
fed to it small.  The run-based pass must produce exactly these keys,
and the table :func:`reference_table` assembles from them.
"""

from __future__ import annotations

import numpy as np

from repro.raster.scanline import _coverage_spans, _sorted_pairs, _stack_edges
from repro.raster.viewport import Viewport


def _expand_ranges(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    counts = np.asarray(counts, dtype=np.int64)
    offsets = np.repeat(np.cumsum(counts) - counts, counts)
    return (np.repeat(np.asarray(starts, dtype=np.int64), counts)
            + np.arange(int(counts.sum())) - offsets)


def _mark_with_gridline_neighbors(gx: np.ndarray, gy: np.ndarray,
                                  gid: np.ndarray, viewport: Viewport
                                  ) -> np.ndarray:
    """Keys of the pixels containing points given in grid units,
    including both neighbors when a point lies exactly on a grid line."""
    ix = np.floor(gx).astype(np.int64)
    iy = np.floor(gy).astype(np.int64)
    on_v = gx == ix
    on_h = gy == iy
    both = on_v & on_h
    ix = np.concatenate([ix, ix[on_v] - 1, ix[on_h], ix[both] - 1])
    iy = np.concatenate([iy, iy[on_v], iy[on_h] - 1, iy[both] - 1])
    gid = np.concatenate([gid, gid[on_v], gid[on_h], gid[both]])
    valid = ((ix >= 0) & (ix < viewport.width)
             & (iy >= 0) & (iy < viewport.height))
    return (gid[valid] * viewport.num_pixels
            + iy[valid] * viewport.width + ix[valid])


def _gridline_aligned_keys(line: np.ndarray, a1: np.ndarray, a2: np.ndarray,
                           gid: np.ndarray, horizontal: bool,
                           viewport: Viewport) -> np.ndarray:
    """Pixel keys of axis-parallel edges lying exactly on a grid line:
    only the row (column) that owns the line under the half-open
    convention."""
    fixed = line.astype(np.int64)
    lo = np.floor(np.minimum(a1, a2)).astype(np.int64)
    hi = np.floor(np.maximum(a1, a2)).astype(np.int64)
    if horizontal:
        fixed_cap, span_cap = viewport.height, viewport.width
    else:
        fixed_cap, span_cap = viewport.width, viewport.height
    lo = np.maximum(lo, 0)
    hi = np.minimum(hi, span_cap - 1)
    keep = (hi >= lo) & (fixed >= 0) & (fixed < fixed_cap)
    fixed, lo, hi, gid = fixed[keep], lo[keep], hi[keep], gid[keep]
    counts = hi - lo + 1
    base = gid * viewport.num_pixels
    if horizontal:
        return _expand_ranges(base + fixed * viewport.width + lo, counts)
    rows = _expand_ranges(lo, counts)
    return np.repeat(base + fixed, counts) + rows * viewport.width


def reference_boundary_keys(edges: tuple[np.ndarray, ...],
                            viewport: Viewport) -> np.ndarray:
    """Sorted unique keys of the conservative boundary cover of the
    stacked ``edges`` (``scanline._stack_edges``)."""
    x1, y1, x2, y2, gid = edges
    pw = viewport.pixel_width
    ph = viewport.pixel_height
    x0 = viewport.bbox.xmin
    y0 = viewport.bbox.ymin
    gx1 = (x1 - x0) / pw
    gy1 = (y1 - y0) / ph
    gx2 = (x2 - x0) / pw
    gy2 = (y2 - y0) / ph

    aligned_h = (gy1 == gy2) & (gy1 == np.floor(gy1)) & (gx1 != gx2)
    aligned_v = (gx1 == gx2) & (gx1 == np.floor(gx1)) & (gy1 != gy2)
    generic = ~(aligned_h | aligned_v)
    aligned = [
        _gridline_aligned_keys(gy1[aligned_h], gx1[aligned_h],
                               gx2[aligned_h], gid[aligned_h], True,
                               viewport),
        _gridline_aligned_keys(gx1[aligned_v], gy1[aligned_v],
                               gy2[aligned_v], gid[aligned_v], False,
                               viewport),
    ]

    gx1, gy1 = gx1[generic], gy1[generic]
    gx2, gy2 = gx2[generic], gy2[generic]
    gid = gid[generic]
    num_edges = len(gx1)

    def _axis_crossings(a1: np.ndarray, a2: np.ndarray):
        first = np.ceil(np.minimum(a1, a2))
        counts = np.maximum(
            0, np.floor(np.maximum(a1, a2)) - first + 1).astype(np.int64)
        counts[a1 == a2] = 0
        edges = np.repeat(np.arange(num_edges), counts)
        k = _expand_ranges(first.astype(np.int64), counts).astype(np.float64)
        t = np.clip((k - a1[edges]) / (a2[edges] - a1[edges]), 0.0, 1.0)
        return edges, t, k

    ex, tx, kx = _axis_crossings(gx1, gx2)
    ey, ty, ky = _axis_crossings(gy1, gy2)
    ends = np.arange(num_edges)
    all_edges = np.concatenate([ex, ey, ends, ends])
    all_t = np.concatenate([tx, ty, np.zeros(num_edges), np.ones(num_edges)])

    e_sorted, t_sorted = _sorted_pairs(all_edges, all_t)
    same_edge = e_sorted[1:] == e_sorted[:-1]
    tm = 0.5 * (t_sorted[1:] + t_sorted[:-1])[same_edge]
    em = e_sorted[:-1][same_edge]
    mid_gx = gx1[em] + tm * (gx2[em] - gx1[em])
    mid_gy = gy1[em] + tm * (gy2[em] - gy1[em])

    vx_gy = gy1[ex] + tx * (gy2[ex] - gy1[ex])
    hy_gx = gx1[ey] + ty * (gx2[ey] - gx1[ey])

    keys = np.concatenate(aligned + [
        _mark_with_gridline_neighbors(mid_gx, mid_gy, gid[em], viewport),
        _mark_with_gridline_neighbors(kx, vx_gy, gid[ex], viewport),
        _mark_with_gridline_neighbors(hy_gx, ky, gid[ey], viewport),
        _mark_with_gridline_neighbors(gx1, gy1, gid, viewport),
    ])
    keys.sort()
    return keys[np.diff(keys, prepend=-1) != 0]


def _merge_touching(starts: np.ndarray, stops: np.ndarray, width: int
                    ) -> tuple[np.ndarray, np.ndarray]:
    """Coalesce ascending disjoint key runs that touch inside one row."""
    head = np.ones(len(starts), dtype=bool)
    head[1:] = (starts[1:] != stops[:-1]) | (starts[1:] % width == 0)
    tail = np.ones(len(starts), dtype=bool)
    tail[:-1] = head[1:]
    return starts[head], stops[tail] - starts[head]


def _classify_spans(span_starts: np.ndarray, span_lengths: np.ndarray,
                    boundary: np.ndarray, width: int):
    """(FULL starts, FULL lengths, indices into ``boundary`` of the
    center-covered keys): spans minus boundary keys."""
    span_stops = span_starts + span_lengths
    first = np.searchsorted(boundary, span_starts, side="left")
    inside = np.searchsorted(boundary, span_stops, side="left") - first
    covered = _expand_ranges(first, inside)
    cut = boundary[covered]
    starts = np.sort(np.concatenate([span_starts, cut + 1]))
    stops = np.sort(np.concatenate([cut, span_stops]))
    keep = stops > starts
    full_starts, full_lengths = _merge_touching(starts[keep], stops[keep],
                                                width)
    return full_starts, full_lengths, covered


def reference_table(geometries, viewport: Viewport) -> dict:
    """The fragment table's arrays as the key-based pass assembled
    them: boundary pairs, ``covered_index``, the covered pairs it picks
    out and the nine run arrays (covered runs are the covered keys
    coalesced)."""
    num_polygons, num_pixels = len(geometries), viewport.num_pixels
    edges = _stack_edges(geometries)
    keys = reference_boundary_keys(edges, viewport)
    full_starts, full_lengths, covered = _classify_spans(
        *_coverage_spans(edges, viewport), keys, viewport.width)
    partial_starts, partial_lengths = _merge_touching(
        keys, keys + 1, viewport.width)
    covered_starts, covered_lengths = _merge_touching(
        keys[covered], keys[covered] + 1, viewport.width)

    def by_polygon(keys):
        offsets = np.searchsorted(keys,
                                  np.arange(num_polygons + 1) * num_pixels)
        polys = np.repeat(np.arange(num_polygons), np.diff(offsets))
        return offsets, polys, keys - polys * num_pixels

    full_offsets, _, full_starts = by_polygon(full_starts)
    partial_offsets, _, partial_starts = by_polygon(partial_starts)
    covered_offsets, _, covered_starts = by_polygon(covered_starts)
    _, polys, pixels = by_polygon(keys)
    return {"boundary_pixels": pixels,
            "boundary_polys": polys.astype(np.int32),
            "covered_index": covered,
            "covered_boundary_pixels": pixels[covered],
            "covered_boundary_polys": polys[covered].astype(np.int32),
            "full_offsets": full_offsets, "full_starts": full_starts,
            "full_lengths": full_lengths,
            "partial_offsets": partial_offsets,
            "partial_starts": partial_starts,
            "partial_lengths": partial_lengths,
            "covered_offsets": covered_offsets,
            "covered_starts": covered_starts,
            "covered_lengths": covered_lengths}
