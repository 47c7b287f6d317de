"""Point-array helpers.

Throughout the library a *point set* is a ``float64`` NumPy array of shape
``(n, 2)`` holding ``(x, y)`` coordinates.  These helpers validate and
normalize user input into that canonical form so the rest of the code can
assume it.
"""

from __future__ import annotations

import numpy as np

from ..errors import GeometryError


def as_points(coords) -> np.ndarray:
    """Coerce ``coords`` into a ``(n, 2)`` float64 array.

    Accepts any sequence of ``(x, y)`` pairs (lists, tuples, arrays).
    Raises :class:`GeometryError` if the input cannot be interpreted as
    2-D points or contains non-finite values.
    """
    arr = np.asarray(coords, dtype=np.float64)
    if arr.ndim == 1:
        if arr.size == 0:
            return arr.reshape(0, 2)
        if arr.size == 2:
            arr = arr.reshape(1, 2)
        else:
            raise GeometryError(
                f"cannot interpret 1-D array of size {arr.size} as points"
            )
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise GeometryError(f"expected shape (n, 2), got {arr.shape}")
    if arr.size and not np.isfinite(arr).all():
        raise GeometryError("point coordinates must be finite")
    return arr


def dedupe_consecutive(points: np.ndarray, tol: float = 1e-12) -> np.ndarray:
    """Drop consecutive duplicate vertices from a vertex list.

    Used to sanitize polygon rings before validation; keeps the first of
    each run of coincident vertices.
    """
    pts = as_points(points)
    if len(pts) < 2:
        return pts
    diff = np.abs(np.diff(pts, axis=0)).max(axis=1)
    keep = np.concatenate(([True], diff > tol))
    return pts[keep]


def polygon_signed_area(vertices: np.ndarray) -> float:
    """Signed area of the polygon described by ``vertices`` (shoelace).

    Positive for counter-clockwise orientation.  The ring is treated as
    implicitly closed (the last vertex connects back to the first).
    """
    pts = as_points(vertices)
    if len(pts) < 3:
        return 0.0
    x = pts[:, 0]
    y = pts[:, 1]
    return 0.5 * float(np.dot(x, np.roll(y, -1)) - np.dot(y, np.roll(x, -1)))


def polygon_centroid(vertices: np.ndarray) -> tuple[float, float]:
    """Area centroid of a simple polygon (implicitly closed ring).

    Falls back to the vertex mean for degenerate (zero-area) rings.
    """
    pts = as_points(vertices)
    if len(pts) == 0:
        raise GeometryError("centroid of empty vertex list")
    x = pts[:, 0]
    y = pts[:, 1]
    xn = np.roll(x, -1)
    yn = np.roll(y, -1)
    cross = x * yn - xn * y
    area = 0.5 * float(cross.sum())
    if abs(area) < 1e-300:
        return float(x.mean()), float(y.mean())
    cx = float(((x + xn) * cross).sum()) / (6.0 * area)
    cy = float(((y + yn) * cross).sum()) / (6.0 * area)
    return cx, cy


def polygon_perimeter(vertices: np.ndarray) -> float:
    """Total edge length of the implicitly closed ring."""
    pts = as_points(vertices)
    if len(pts) < 2:
        return 0.0
    closed = np.vstack([pts, pts[:1]])
    seg = np.diff(closed, axis=0)
    return float(np.hypot(seg[:, 0], seg[:, 1]).sum())
