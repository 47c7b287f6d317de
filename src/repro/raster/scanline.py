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
3. :func:`_boundary_runs` — PARTIAL runs, an exact conservative cover
   of the pixels each polygon's boundary passes through: one column
   range per on-screen (edge, row) pair, merged per (polygon, row);
4. :func:`_classify_spans` — FULL runs (spans minus PARTIAL runs) and
   covered runs (spans within PARTIAL runs), by interval arithmetic; no
   stage materializes a pixel.

:func:`coverage_fragments`, :func:`boundary_pixels` and
:func:`rasterize_polygon` are the same routines called with one
geometry.  Outputs are integers computed by elementwise IEEE
arithmetic, so they do not depend on how many polygons share a batch.
"""

from __future__ import annotations

import numpy as np

from .. import kernels
from ..geometry.polygon import Geometry, Polygon
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
    lexicographically by (real, imag): one direct sort (a merge sort,
    which exploits the per-edge ascending runs the pairs arrive in).
    Exact for the ids sorted here (far below 2**53)."""
    pairs = np.empty(len(major), dtype=np.complex128)
    pairs.real = major
    pairs.imag = minor
    pairs.sort(kind="stable")
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
    # span_lo <= xc < span_hi, clipped to the window in float before the
    # integer cast (a far-off crossing must not wrap around int64).
    pw = viewport.pixel_width
    x0 = viewport.bbox.xmin
    col_lo, col_end = (
        np.clip(np.ceil((xs - x0) / pw - 0.5), 0, width).astype(np.int64)
        for xs in (x_sorted[0::2], x_sorted[1::2]))
    lengths = col_end - col_lo
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


def _merge_runs(starts: np.ndarray, stops: np.ndarray, width: int
                ) -> tuple[np.ndarray, np.ndarray]:
    """(starts, lengths) of the union of key runs ``[start, stop)``,
    given as *separately* sorted starts and stops: the ``i``-th stop
    bounds the first ``i`` runs, so a run begins where a start passes
    the stop before it.  Runs touching inside a raster row coalesce; a
    row change (a row wrap, or a polygon change: ``num_pixels`` is a
    multiple of ``width``) always starts a new run."""
    row = starts // width
    head = np.ones(len(starts), dtype=bool)
    head[1:] = (starts[1:] > stops[:-1]) | (row[1:] != row[:-1])
    tail = np.ones(len(starts), dtype=bool)
    tail[:-1] = head[1:]
    return starts[head], stops[tail] - starts[head]


def _boundary_runs(edges: tuple[np.ndarray, ...], viewport: Viewport
                   ) -> tuple[np.ndarray, np.ndarray, int]:
    """PARTIAL runs — an exact conservative cover of the pixels each
    polygon's boundary passes through — as ascending (start keys,
    lengths), and the number of (edge, row) pairs walked.

    Inside the closed strip ``[j, j+1]`` of pixel row ``j`` an edge is
    one sub-segment, so it touches one column range: from the x of the
    sub-segment's ends (a vertex, or the crossing with the strip's grid
    line at the t-value of an exact grid traversal), widened to closed
    pixel squares — a bound on a column line adds the column to its
    left, a crossing of a row line lies in both strips.  That covers
    every half-open pixel (:meth:`Viewport.pixel_ids_of`) the boundary
    meets, which the accurate join's exactness rests on.  An edge lying
    exactly on a grid line touches only the row (column) owning it.

    Rows are taken only inside ``[0, height)``, bounds clipped in float
    before any integer cast: cost follows on-screen (edge, row) pairs.
    """
    x1, y1, x2, y2, gid = edges
    width, height = viewport.width, viewport.height
    expand = kernels.active().expand_ranges
    # Grid units: pixel (i, j) covers [i, i+1) x [j, j+1).
    gx1 = (x1 - viewport.bbox.xmin) / viewport.pixel_width
    gy1 = (y1 - viewport.bbox.ymin) / viewport.pixel_height
    gx2 = (x2 - viewport.bbox.xmin) / viewport.pixel_width
    gy2 = (y2 - viewport.bbox.ymin) / viewport.pixel_height
    dx, dy = gx2 - gx1, gy2 - gy1
    aligned = (((dy == 0) & (gy1 == np.floor(gy1)) & (dx != 0))
               | ((dx == 0) & (gx1 == np.floor(gx1)) & (dy != 0)))
    lower = gy1 <= gy2
    xmin, xmax = np.minimum(gx1, gx2), np.maximum(gx1, gx2)
    ylo, yhi = np.minimum(gy1, gy2), np.maximum(gy1, gy2)
    first = np.clip(np.where(aligned, np.floor(ylo), np.ceil(ylo) - 1),
                    0, height)
    last = np.clip(np.floor(yhi), -1, height - 1)
    # Edges wholly left or right of the window touch no column.
    last[(xmax < 0) | (xmin > width)] = -1
    rows = np.maximum(last - first + 1, 0).astype(np.int64)

    # Each edge's crossing with every grid line bounding its rows: the
    # line between two rows is computed once for both.
    lines = rows + (rows > 0)
    e = np.repeat(np.arange(len(gx1)), lines)
    row = expand(first.astype(np.int64), lines)
    y = row.astype(np.float64)
    t = np.clip((y - gy1[e]) / np.where(dy == 0, np.inf, dy)[e], 0.0, 1.0)
    x = gx1[e] + t * dx[e]
    # Where an edge stops short of its first (last) line, its strip's
    # sub-segment ends at the edge's lower (upper) vertex instead — or,
    # if that vertex lies on the strip's other line, is that crossing.
    has = np.flatnonzero(rows)
    head = (np.cumsum(lines) - lines)[has]
    tail = head + rows[has]
    vertex = np.zeros(len(x), dtype=bool)
    for at, end, step, vx in ((head, ylo, 1, np.where(lower, gx1, gx2)),
                              (tail, yhi, -1, np.where(lower, gx2, gx1))):
        at = at[(dy[e[at]] == 0) | (step * (end[e[at]] - y[at]) > 0)]
        ea = e[at]
        on = (y[at + step] == end[ea]) & (dy[ea] != 0)
        x[at] = np.where(on, x[at + step], vx[ea])
        vertex[at] = True

    # The (edge, row) pair at line j spans the x of lines j and j + 1;
    # an edge's last line starts no pair.
    lo, hi = np.minimum(x[:-1], x[1:]), np.maximum(x[:-1], x[1:])
    c0 = np.ceil(lo) - 1
    on_line = expand(head[aligned[has]], rows[has][aligned[has]])
    c0[on_line] = np.floor(lo[on_line])
    c0[tail[:-1]] = np.inf
    line = (gid * height)[e[:-1]] + row[:-1]
    marks = [(line, c0, np.floor(hi))]

    # The traversal rounds each interpolated coordinate on its own: a
    # vertical crossing (exact x, interpolated y) or its midpoint with a
    # row-line crossing may land in a strip the ends miss — only near a
    # grid corner, unless the edge is too flat or long for exact ends.
    def t_at(k, a1, d):
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.clip((k - a1) / d, 0.0, 1.0)

    def in_strip(yv, i):
        return (yv >= y[i]) & (yv <= y[i] + 1)

    def near_line(v):  # within 1e-3 of a grid line
        return np.abs(v - np.rint(v)) <= 1e-3

    with np.errstate(over="ignore"):
        rough = ~aligned & (dx != 0) & (
            (np.abs(dy) < 1e-12 * np.abs(dx) * (1 + np.abs(gy1) + np.abs(gy2)))
            | (np.maximum(np.abs(gx1), np.abs(gx2)) > 1e9))
    near = near_line(x) & ~vertex
    pick = near[:-1] | near[1:]
    pick[expand(head[rough[has]], rows[has][rough[has]])] = True
    i = np.flatnonzero(pick & np.isfinite(c0))
    ei = e[i]
    crosses = ~aligned[ei] & (dx[ei] != 0)
    for end in (i, i + 1):
        # The midpoint of a row-line crossing and the vertical one at
        # its corner, if no other row-line crossing lies between them.
        kv = np.rint(x[end])
        tv = t_at(kv, gx1[ei], dx[ei])
        ok = near[end] & crosses & (kv >= xmin[ei]) & (kv <= xmax[ei])
        t_lo, t_hi = np.minimum(t[end], tv), np.maximum(t[end], tv)
        for other in (y[end] - 1, y[end] + 1):
            to = t_at(other, gy1[ei], dy[ei])
            ok &= (to <= t_lo) | (to >= t_hi)
        tm = 0.5 * (t[end] + tv)
        mx = gx1[ei] + tm * dx[ei]
        m = ok & in_strip(gy1[ei] + tm * dy[ei], i)
        marks.append((line[i[m]], np.ceil(mx[m]) - 1, np.floor(mx[m])))
    # Vertical crossings from a column past the ends (rough: on screen).
    k0, k1 = (np.clip(np.where(rough[ei], edge_k, pair_k), -1, width + 1)
              for edge_k, pair_k in ((np.ceil(xmin[ei]), np.ceil(lo[i]) - 1),
                                     (np.floor(xmax[ei]), np.floor(hi[i]) + 1)))
    n = np.maximum(k1 - k0 + 1, 0).astype(np.int64)
    i, crosses = np.repeat(i, n), np.repeat(crosses, n)
    ei = e[i]
    k = expand(k0.astype(np.int64), n).astype(np.float64)
    m = (crosses & (k >= xmin[ei]) & (k <= xmax[ei])
         & in_strip(gy1[ei] + t_at(k, gx1[ei], dx[ei]) * dy[ei], i))
    marks.append((line[i[m]], k[m] - 1, k[m]))

    # The end vertex is marked as the next edge's start; the traversal
    # marks the edge's last vertical crossing and last midpoint instead,
    # which only an end vertex within rounding of a grid line (or a rough
    # edge) can set apart.  With no crossing, t clips to 0.
    g = np.flatnonzero(~aligned & (near_line(gx2) | near_line(gy2) | rough))
    gx1, gy1, gx2, gy2, dx, dy = (a[g] for a in (gx1, gy1, gx2, gy2, dx, dy))
    kv = np.where(dx > 0, np.floor(gx2), np.ceil(gx2))
    kh = np.where(dy > 0, np.floor(gy2), np.ceil(gy2))
    tv = np.where(dx != 0, t_at(kv, gx1, dx), 0.0)
    tm = 0.5 * (np.maximum(tv, np.where(dy != 0, t_at(kh, gy1, dy), 0.0))
                + 1.0)
    has_v = (dx != 0) & (kv >= xmin[g]) & (kv <= xmax[g])
    for px, py, ok in ((kv, gy1 + tv * dy, has_v),
                       (gx1 + tm * dx, gy1 + tm * dy, True)):
        for r in (np.ceil(py) - 1, np.floor(py)):
            on = np.flatnonzero(ok & (r >= 0) & (r < height))
            marks.append((gid[g[on]] * height + r[on].astype(np.int64),
                          np.ceil(px[on]) - 1, np.floor(px[on])))

    line, c0, c1 = (np.concatenate(part) for part in zip(*marks))
    c0, c1 = np.clip(c0, 0, width), np.clip(c1, -1, width - 1)
    keep = c1 >= c0
    starts = (line * width + c0.astype(np.int64))[keep]
    stops = starts + (c1 - c0 + 1).astype(np.int64)[keep]
    starts.sort()
    stops.sort()
    return (*_merge_runs(starts, stops, width), int(rows.sum()))


def boundary_pixels(geometry: Geometry, viewport: Viewport) -> np.ndarray:
    """Sorted flat ids of the pixels ``geometry``'s boundary may pass
    through: its PARTIAL runs expanded (see :func:`_boundary_runs`)."""
    starts, lengths, _ = _boundary_runs(_stack_edges([geometry]), viewport)
    return kernels.active().expand_ranges(starts, lengths)


def _classify_spans(span_starts: np.ndarray, span_lengths: np.ndarray,
                    partial_starts: np.ndarray, partial_lengths: np.ndarray,
                    width: int) -> tuple[np.ndarray, ...]:
    """Coverage spans minus PARTIAL runs, by interval arithmetic:
    ``(FULL run starts, FULL run lengths, covered run starts, covered
    run lengths)``, all ascending keys.

    Each (span, PARTIAL run) overlap is a cut: the covered-boundary
    pixels of that span, merged into the covered runs.  The gaps
    between a span's cuts (and its ends) are the FULL runs.  Nothing is
    expanded — cost follows the number of spans and runs, not the
    covered or boundary area.
    """
    span_stops = span_starts + span_lengths
    partial_stops = partial_starts + partial_lengths
    # Runs overlapping a span: those ending after its start and
    # starting before its stop — a contiguous range, as both ascend.
    first = np.searchsorted(partial_stops, span_starts, side="right")
    count = np.maximum(
        np.searchsorted(partial_starts, span_stops, side="left") - first, 0)
    run = kernels.active().expand_ranges(first, count)
    span = np.repeat(np.arange(len(span_starts)), count)
    # Spans ascend and are disjoint, as do the runs: so do the cuts.
    cut_starts = np.maximum(partial_starts[run], span_starts[span])
    cut_stops = np.minimum(partial_stops[run], span_stops[span])

    # A span with k cuts yields k + 1 candidate runs: span start .. first
    # cut, cut .. cut, last cut .. span end.  Run by run both the starts
    # and the stops ascend, so sorting interleaves the two sources of
    # each into run order.
    starts = np.sort(np.concatenate([span_starts, cut_stops]), kind="stable")
    stops = np.sort(np.concatenate([cut_starts, span_stops]), kind="stable")
    keep = stops > starts
    # Touching spans (or a span pair split only by clipping) were one
    # pixel run; keep them one FULL run, and touching cuts one covered
    # run.
    return (*_merge_runs(starts[keep], stops[keep], width),
            *_merge_runs(cut_starts, cut_stops, width))


def rasterize_polygon(geometry: Geometry, viewport: Viewport
                      ) -> tuple[np.ndarray, np.ndarray]:
    """(interior pixel ids, boundary pixel ids) for one geometry: its
    FULL and PARTIAL runs expanded.

    *Interior* pixels have their center inside the geometry and are not
    boundary pixels — every point in them is guaranteed inside.
    *Boundary* pixels may contain both inside and outside points.
    """
    edges = _stack_edges([geometry])
    partial = _boundary_runs(edges, viewport)[:2]
    full = _classify_spans(*_coverage_spans(edges, viewport), *partial,
                           viewport.width)[:2]
    expand = kernels.active().expand_ranges
    return expand(*full), expand(*partial)


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
        frags.append(coverage_fragments(Polygon(tri), viewport))
    if not frags:
        return np.empty(0, dtype=np.int64)
    return np.unique(np.concatenate(frags))
