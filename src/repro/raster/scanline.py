"""Scanline polygon rasterization (fragment generation).

This is the software stand-in for the GPU's triangle rasterizer: given
polygons and a viewport it produces the *fragments* — pixels whose
centers are covered — using the same sample-at-pixel-center, even-odd
rule a GPU applies.

Everything is **batched over a whole region set**: no stage loops over
polygons, and pixels are addressed by one sortable key,
``polygon * num_pixels + pixel``.  The stages
(:func:`repro.raster.fragments.build_fragment_table` chains them):

1. :func:`_stack_edges` — ring edges of every polygon, stacked once;
2. :func:`_coverage_spans` — per (polygon, row) spans of covered pixel
   centers (exterior minus holes, even-odd across all rings at once),
   from the (edge, row) crossings only;
3. :func:`_boundary_keys` — an exact conservative cover of the pixels
   each polygon's boundary passes through (grid traversal of every
   edge), deduplicated by one sort;
4. :func:`_classify_spans` — FULL runs (spans minus boundary keys) and
   the center-covered boundary keys, by interval arithmetic; interior
   pixels are never materialized.

:func:`coverage_fragments`, :func:`boundary_pixels` and
:func:`rasterize_polygon` are the same routines called with one
geometry.  Outputs are integers computed by elementwise IEEE
arithmetic, so they do not depend on how many polygons share a batch.
"""

from __future__ import annotations

import numpy as np

from .. import kernels
from ..geometry.polygon import Geometry
from .viewport import Viewport


def _stack_edges(geometries, with_rings: bool = False
                 ) -> tuple[np.ndarray, ...]:
    """Flat ``(x1, y1, x2, y2, polygon_id)`` edge arrays of every ring of
    every geometry — all rings of one geometry (holes, multipolygon
    parts) under that geometry's position in ``geometries``.

    ``with_rings`` appends the ring structure the exact refine combines
    crossing parities by: ``(ring id per edge, part id per ring, hole
    flag per ring)``.  A part is one polygon of a geometry (exterior
    first, then its holes); ids ascend in stacking order.
    """
    rings, owners, parts, holes = [], [], [], []
    part = -1
    for gid, geometry in enumerate(geometries):
        for polygon in getattr(geometry, "polygons", (geometry,)):
            part += 1
            for k, ring in enumerate(polygon.rings()):
                rings.append(ring)
                owners.append(gid)
                parts.append(part)
                holes.append(k > 0)
    sizes = np.array([len(ring) for ring in rings], dtype=np.int64)
    verts = np.concatenate(rings) if rings else np.empty((0, 2))
    # Each vertex's successor within its ring: the next row, with a
    # ring's last vertex wrapping to its first.
    ends = np.cumsum(sizes)
    nxt = np.arange(1, len(verts) + 1)
    nxt[ends - 1] = ends - sizes
    x1 = np.ascontiguousarray(verts[:, 0])
    y1 = np.ascontiguousarray(verts[:, 1])
    edges = (x1, y1, x1[nxt], y1[nxt],
             np.repeat(np.array(owners, dtype=np.int64), sizes))
    if not with_rings:
        return edges
    return edges + (np.repeat(np.arange(len(rings)), sizes),
                    np.array(parts, dtype=np.int64),
                    np.array(holes, dtype=bool))


def _sorted_pairs(major: np.ndarray, minor: np.ndarray
                  ) -> tuple[np.ndarray, np.ndarray]:
    """``(major, minor)`` pairs sorted by integer ``major``, then float
    ``minor``.  Packed as complex numbers, which NumPy orders
    lexicographically by (real, imag): one direct sort where
    ``np.lexsort`` runs two indirect ones at ~2.5x the cost.  Exact for
    the ids sorted here (far below 2**53)."""
    pairs = np.empty(len(major), dtype=np.complex128)
    pairs.real = major
    pairs.imag = minor
    pairs.sort()
    return pairs.real.astype(np.int64), pairs.imag


def _coverage_spans(edges: tuple[np.ndarray, ...], viewport: Viewport
                    ) -> tuple[np.ndarray, np.ndarray]:
    """(start keys, lengths) of the center-covered pixel spans of every
    polygon, ascending.

    A key is ``polygon * num_pixels + pixel``.  Even-odd scanline fill
    over all rings of all polygons at once: crossings are grouped by
    (polygon, row) and paired left to right, so a hole edge toggles
    coverage off with no special casing.  Spans of one polygon are
    disjoint (they may touch) and never leave their raster row.
    Cost follows the number of (edge, row) crossings.
    """
    x1, y1, x2, y2, gid = edges
    width, height = viewport.width, viewport.height
    # Sample line per pixel row.
    yc = viewport.bbox.ymin + (np.arange(height) + 0.5) * viewport.pixel_height

    # Edge e crosses the sample line of row r when one endpoint is
    # strictly above it and the other at-or-below:
    # ``(y1 > yc) != (y2 > yc)``, i.e. ``min(y1, y2) <= yc < max(y1, y2)``
    # — a contiguous row range, since ``yc`` ascends.
    first = np.searchsorted(yc, np.minimum(y1, y2), side="left")
    counts = np.searchsorted(yc, np.maximum(y1, y2), side="left") - first
    e_idx = np.repeat(np.arange(len(x1)), counts)
    r_idx = kernels.active().expand_ranges(first, counts)

    # NB: operation order mirrors predicates.points_in_ring bit-for-bit,
    # so a pixel center lying exactly on an edge classifies identically
    # here and in the exact test (the accurate join relies on agreement
    # only through boundary pixels, but tests compare globally).
    xint = (x1[e_idx]
            + (yc[r_idx] - y1[e_idx]) * (x2[e_idx] - x1[e_idx])
            / (y2[e_idx] - y1[e_idx]))

    # Sort crossings by (polygon, row, x); the even-odd rule pairs
    # consecutive crossings of one (polygon, row) into filled spans.
    line, x_sorted = _sorted_pairs(gid[e_idx] * height + r_idx, xint)
    span_line = line[0::2]
    # Crossing counts per line are even (closed rings); a pair spanning
    # two lines can only arise from vertices landing exactly on a sample
    # line under the strict/non-strict rule.  The half-open convention
    # above prevents it, but guard anyway.
    if not np.array_equal(span_line, line[1::2]):
        raise AssertionError("scanline pairing failed: odd crossing count")

    # World-x spans to pixel-center columns: centers with
    # span_lo <= xc < span_hi.
    pw = viewport.pixel_width
    x0 = viewport.bbox.xmin
    col_lo = np.ceil((x_sorted[0::2] - x0) / pw - 0.5).astype(np.int64)
    col_hi = np.ceil((x_sorted[1::2] - x0) / pw - 0.5).astype(np.int64) - 1
    col_lo = np.maximum(col_lo, 0)
    col_hi = np.minimum(col_hi, width - 1)
    lengths = col_hi - col_lo + 1
    keep = lengths > 0
    # polygon * num_pixels + row * width == line * width.
    return span_line[keep] * width + col_lo[keep], lengths[keep]


def coverage_fragments(geometry: Geometry, viewport: Viewport) -> np.ndarray:
    """Flat pixel ids whose centers are inside ``geometry``, ascending
    (exterior minus holes, even-odd across all rings)."""
    starts, lengths = _coverage_spans(_stack_edges([geometry]), viewport)
    return kernels.active().expand_ranges(starts, lengths)


def boundary_pixels_sampled(geometry: Geometry, viewport: Viewport,
                            dilate: bool = True) -> np.ndarray:
    """Conservative boundary cover by edge supersampling + dilation.

    Every ring edge is supersampled at <= 0.45 pixel steps; touched
    pixels are collected and (by default) dilated by one pixel in all
    eight directions.  The sampling can only miss a pixel the edge clips
    near a corner, and any such pixel is 8-adjacent to a sampled one, so
    sampling + dilation is a true conservative cover.  Superseded by the
    ~3x tighter :func:`boundary_pixels` (exact grid traversal); kept for
    the ablation benchmarks.
    """
    x1, y1, x2, y2, _ = _stack_edges([geometry])
    pw = viewport.pixel_width
    ph = viewport.pixel_height
    step = 0.45 * min(pw, ph)
    lengths = np.hypot(x2 - x1, y2 - y1)
    nsamples = np.maximum(2, np.ceil(lengths / step).astype(np.int64) + 1)

    total = int(nsamples.sum())
    edge_of_sample = np.repeat(np.arange(len(x1)), nsamples)
    cum = np.concatenate(([0], np.cumsum(nsamples)[:-1]))
    local = np.arange(total) - np.repeat(cum, nsamples)
    t = local / np.repeat(nsamples - 1, nsamples)

    sx = x1[edge_of_sample] + t * (x2 - x1)[edge_of_sample]
    sy = y1[edge_of_sample] + t * (y2 - y1)[edge_of_sample]

    ix = np.floor((sx - viewport.bbox.xmin) / pw).astype(np.int64)
    iy = np.floor((sy - viewport.bbox.ymin) / ph).astype(np.int64)

    if dilate:
        # 3x3 dilation before clipping so off-screen samples still mark
        # their on-screen neighbours.
        ix = (ix[:, None] + np.array([-1, 0, 1])).reshape(-1, 1)
        iy = np.repeat(iy, 3).reshape(-1, 1)
        ix = np.repeat(ix, 3, axis=0).ravel()
        iy = (iy + np.array([-1, 0, 1])).ravel()

    valid = (ix >= 0) & (ix < viewport.width) & (iy >= 0) & (iy < viewport.height)
    ids = iy[valid] * viewport.width + ix[valid]
    return np.unique(ids)


def _mark_with_gridline_neighbors(gx: np.ndarray, gy: np.ndarray,
                                  gid: np.ndarray, viewport: Viewport
                                  ) -> np.ndarray:
    """Keys of the pixels containing points given in *grid units*,
    including both neighbors when a point lies exactly on a grid line
    (such a point sits on the shared closed edge of two pixels, and the
    boundary then touches both)."""
    ix = np.floor(gx).astype(np.int64)
    iy = np.floor(gy).astype(np.int64)
    on_v = gx == ix  # exactly on a vertical grid line
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
    """Pixel keys of axis-parallel edges lying exactly on a grid line.

    A horizontal edge at integer grid row ``j`` spanning grid-x
    ``[a, b]`` touches exactly the half-open pixels
    ``(floor(min), j) .. (floor(max), j)``: row ``j`` owns every point
    with y == j, and row ``j - 1`` contains only strictly-below points,
    so marking the neighbor row (as the generic machinery would) is
    pure over-marking.  Symmetric for vertical edges.
    """
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
    expand = kernels.active().expand_ranges
    if horizontal:
        # Consecutive columns of one row are consecutive flat ids.
        return expand(base + fixed * viewport.width + lo, counts)
    rows = expand(lo, counts)
    return np.repeat(base + fixed, counts) + rows * viewport.width


def _boundary_keys(edges: tuple[np.ndarray, ...], viewport: Viewport
                   ) -> np.ndarray:
    """Sorted unique keys ``polygon * num_pixels + pixel`` of an exact
    conservative cover of the pixels each polygon's boundary passes
    through.

    Grid-traversal rasterization of every ring edge of every polygon,
    vectorized over all edges at once: each edge's crossings with
    vertical and horizontal pixel-grid lines split it into pieces, each
    piece lies inside one pixel, and the piece midpoints identify those
    pixels.  Crossing points and vertices that fall exactly on grid
    lines additionally mark both adjacent pixels (float-safe
    conservatism), so the result is a superset of every pixel whose
    *half-open* square ``[i, i+1) x [j, j+1)`` — the region
    :meth:`Viewport.pixel_ids_of` assigns points to — meets the
    boundary.  That superset property is what the accurate raster join's
    exactness rests on, while staying ~3x tighter than sampling with 3x3
    dilation.

    Axis-parallel edges lying *exactly on* a grid line are special-cased
    (:func:`_gridline_aligned_keys`): they touch only the one row/column
    that owns the line under the half-open convention, so the
    both-neighbors rule the generic machinery applies would over-mark an
    entire row or column of pixels per aligned edge.
    """
    x1, y1, x2, y2, gid = edges
    pw = viewport.pixel_width
    ph = viewport.pixel_height
    x0 = viewport.bbox.xmin
    y0 = viewport.bbox.ymin
    # Work in grid units: pixel (i, j) covers [i, i+1) x [j, j+1).
    gx1 = (x1 - x0) / pw
    gy1 = (y1 - y0) / ph
    gx2 = (x2 - x0) / pw
    gy2 = (y2 - y0) / ph

    # Split off edges running exactly along a grid line — their pixel
    # cover is a single run, computed directly; everything else goes
    # through the conservative piece/crossing/vertex machinery.
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
        """(edge ids, t values, line indices) of crossings with integer
        grid lines of one axis; degenerate edges (a1 == a2) produce
        none."""
        first = np.ceil(np.minimum(a1, a2))
        counts = np.maximum(
            0, np.floor(np.maximum(a1, a2)) - first + 1).astype(np.int64)
        counts[a1 == a2] = 0
        edges = np.repeat(np.arange(num_edges), counts)
        k = kernels.active().expand_ranges(
            first.astype(np.int64), counts).astype(np.float64)
        t = np.clip((k - a1[edges]) / (a2[edges] - a1[edges]), 0.0, 1.0)
        return edges, t, k

    ex, tx, kx = _axis_crossings(gx1, gx2)
    ey, ty, ky = _axis_crossings(gy1, gy2)
    ends = np.arange(num_edges)
    all_edges = np.concatenate([ex, ey, ends, ends])
    all_t = np.concatenate([tx, ty, np.zeros(num_edges),
                            np.ones(num_edges)])

    e_sorted, t_sorted = _sorted_pairs(all_edges, all_t)

    # Midpoints of consecutive crossing pairs on the same edge: one
    # point inside every grid piece the edge passes through.  (Pieces
    # running exactly along a grid line interpolate that coordinate
    # exactly, so the neighbor rule still fires for them.)
    same_edge = e_sorted[1:] == e_sorted[:-1]
    tm = 0.5 * (t_sorted[1:] + t_sorted[:-1])[same_edge]
    em = e_sorted[:-1][same_edge]
    mid_gx = gx1[em] + tm * (gx2[em] - gx1[em])
    mid_gy = gy1[em] + tm * (gy2[em] - gy1[em])

    # Crossing points sit exactly on a grid line by construction (the
    # crossed coordinate is the integer k, not an interpolation), so the
    # neighbor rule marks both adjacent pixels robustly.  Ring vertices
    # are emitted with their exact endpoint coordinates for the same
    # reason.
    vx_gy = gy1[ex] + tx * (gy2[ex] - gy1[ex])  # vertical crossings
    hy_gx = gx1[ey] + ty * (gx2[ey] - gx1[ey])  # horizontal crossings

    keys = np.concatenate(aligned + [
        _mark_with_gridline_neighbors(mid_gx, mid_gy, gid[em], viewport),
        _mark_with_gridline_neighbors(kx, vx_gy, gid[ex], viewport),
        _mark_with_gridline_neighbors(hy_gx, ky, gid[ey], viewport),
        _mark_with_gridline_neighbors(gx1, gy1, gid, viewport),
    ])
    # One sort dedupes every polygon's marks at once (``np.unique``
    # hashes instead, at several times the cost).
    keys.sort()
    return keys[np.diff(keys, prepend=-1) != 0]


def boundary_pixels(geometry: Geometry, viewport: Viewport) -> np.ndarray:
    """Sorted flat ids of the pixels ``geometry``'s boundary may pass
    through (see :func:`_boundary_keys`)."""
    return _boundary_keys(_stack_edges([geometry]), viewport)


def _merge_touching(starts: np.ndarray, stops: np.ndarray, width: int
                    ) -> tuple[np.ndarray, np.ndarray]:
    """Coalesce ascending disjoint key runs ``[start, stop)`` that touch
    inside one raster row; returns (starts, lengths).  A run starting in
    column 0 never merges into its predecessor: consecutive keys across
    a row wrap are not spatially adjacent, and across a polygon change
    (``num_pixels`` is a multiple of ``width``) they belong to different
    polygons."""
    head = np.ones(len(starts), dtype=bool)
    head[1:] = (starts[1:] != stops[:-1]) | (starts[1:] % width == 0)
    tail = np.ones(len(starts), dtype=bool)
    tail[:-1] = head[1:]
    return starts[head], stops[tail] - starts[head]


def _classify_spans(span_starts: np.ndarray, span_lengths: np.ndarray,
                    boundary: np.ndarray, width: int
                    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Split coverage spans against the boundary cover by interval
    arithmetic: ``(FULL run starts, FULL run lengths, indices into
    ``boundary`` of the center-covered boundary keys)``.

    The boundary keys inside a span are its covered-boundary pixels; the
    gaps between them (and the span's ends) are the FULL runs.  Interior
    pixels are never materialized here — cost follows the number of
    spans and boundary keys, not the covered area.
    """
    span_stops = span_starts + span_lengths
    first = np.searchsorted(boundary, span_starts, side="left")
    inside = np.searchsorted(boundary, span_stops, side="left") - first
    # Spans ascend and are disjoint, so these indices ascend too.
    covered = kernels.active().expand_ranges(first, inside)
    cut = boundary[covered]

    # A span with k keys inside yields k + 1 candidate runs: span start
    # .. first key, key .. key, last key .. span end.  Run by run both
    # the starts and the stops ascend, so sorting interleaves the two
    # sources of each into run order.
    starts = np.sort(np.concatenate([span_starts, cut + 1]))
    stops = np.sort(np.concatenate([cut, span_stops]))
    keep = stops > starts
    # Touching spans (or a span pair split only by clipping) were one
    # pixel run; keep them one FULL run.
    full_starts, full_lengths = _merge_touching(starts[keep], stops[keep],
                                                width)
    return full_starts, full_lengths, covered


def rasterize_polygon(geometry: Geometry, viewport: Viewport
                      ) -> tuple[np.ndarray, np.ndarray]:
    """(interior pixel ids, boundary pixel ids) for one geometry.

    *Interior* pixels have their center inside the geometry and are not
    boundary pixels — every point in them is guaranteed inside.
    *Boundary* pixels may contain both inside and outside points.
    """
    edges = _stack_edges([geometry])
    boundary = _boundary_keys(edges, viewport)
    starts, lengths, _ = _classify_spans(
        *_coverage_spans(edges, viewport), boundary, viewport.width)
    return kernels.active().expand_ranges(starts, lengths), boundary


def rasterize_triangles(triangles: np.ndarray, viewport: Viewport) -> np.ndarray:
    """Fragments of a triangle soup (union of center-covered pixels).

    Used by the ablation that mimics the GPU path (tessellate, then
    rasterize triangles) instead of direct polygon scanline.  Triangles
    are assumed non-overlapping (a proper tessellation), so the union of
    their fragments equals the polygon's fragments up to edge-sample
    ties.
    """
    frags = []
    for tri in triangles:
        from ..geometry.polygon import Polygon

        frags.append(coverage_fragments(Polygon(tri), viewport))
    if not frags:
        return np.empty(0, dtype=np.int64)
    return np.unique(np.concatenate(frags))
