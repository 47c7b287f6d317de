"""Low-level geometric predicates.

The point-in-polygon tests here are the exact comparators that the index
join baselines and the accurate raster join use; they are vectorized over
the *points* axis because the typical call tests millions of points against
one ring.
"""

from __future__ import annotations

import numpy as np

from .point import as_points


def orient2d(ax, ay, bx, by, cx, cy):
    """Twice the signed area of triangle (a, b, c).

    Positive when c lies to the left of the directed line a->b.  Works on
    scalars or broadcastable arrays.
    """
    return (bx - ax) * (cy - ay) - (by - ay) * (cx - ax)


def ring_edges(ring) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Per-edge endpoint columns ``(x1, y1, x2, y2)`` of a ring, shaped
    for broadcasting against a point batch.  Geometries that are tested
    repeatedly (query regions under brushing) precompute these once."""
    verts = as_points(ring)
    vx = verts[:, 0]
    vy = verts[:, 1]
    return (vx[:, None], vy[:, None],
            np.roll(vx, -1)[:, None], np.roll(vy, -1)[:, None])


def points_in_ring(points, ring, edges=None) -> np.ndarray:
    """Vectorized crossing-number test of many points against one ring.

    ``ring`` is an implicitly closed ``(m, 2)`` vertex array.  Returns a
    boolean mask.  Points exactly on a horizontal edge follow the usual
    half-open convention (consistent across adjacent rings, so partitions
    assign each point to exactly one region).  ``edges`` short-circuits
    the per-call edge setup with a cached :func:`ring_edges` result.
    """
    pts = as_points(points)
    n = len(pts)
    if edges is None:
        edges = ring_edges(ring)
    x1, y1, x2, y2 = edges
    m = len(x1)
    if n == 0 or m < 3:
        return np.zeros(n, dtype=bool)

    x = pts[:, 0]
    y = pts[:, 1]

    # Broadcast over (edges, points) when the intermediate fits
    # comfortably; chunk the points otherwise.  Either way each
    # (point, edge) crossing decision evaluates the exact same float
    # expression, so the mask is independent of the execution shape.
    chunk = max(1, 8_000_000 // m)
    inside = np.empty(n, dtype=bool)
    for lo in range(0, n, chunk):
        xs = x[lo:lo + chunk]
        ys = y[lo:lo + chunk]
        # Half-open in y: an edge counts when one endpoint is strictly
        # above the query point and the other is at-or-below it.
        cond = (y1 > ys) != (y2 > ys)
        # x coordinate where the edge crosses the horizontal line at y.
        with np.errstate(divide="ignore", invalid="ignore"):
            xint = x1 + (ys - y1) * (x2 - x1) / (y2 - y1)
        crossings = (cond & (xs < xint)).sum(axis=0)
        inside[lo:lo + chunk] = (crossings & 1).astype(bool)
    return inside


def point_in_ring(x: float, y: float, ring) -> bool:
    """Scalar crossing-number test (convenience wrapper)."""
    return bool(points_in_ring(np.array([[x, y]]), ring)[0])

