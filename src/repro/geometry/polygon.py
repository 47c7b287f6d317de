"""Polygon geometries: rings, polygons with holes, multipolygons.

A :class:`Polygon` is one exterior ring plus zero or more hole rings; a
:class:`MultiPolygon` is a list of polygons sharing a single region id.
These are the ``R.geometry`` values of the paper's spatial aggregation
query — arbitrary, possibly non-convex, possibly holed shapes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from ..errors import GeometryError
from .bbox import BBox
from .point import (
    as_points,
    dedupe_consecutive,
    polygon_centroid,
    polygon_perimeter,
    polygon_signed_area,
)
from .predicates import points_in_ring, ring_edges


def normalize_ring(vertices, orientation: int = 1) -> np.ndarray:
    """Sanitize a vertex list into a canonical open ring.

    Drops an explicit closing vertex and consecutive duplicates, checks
    that at least three distinct vertices remain, and flips the vertex
    order so the signed area has the sign of ``orientation`` (+1 for
    counter-clockwise exteriors, -1 for clockwise holes).
    """
    pts = dedupe_consecutive(as_points(vertices))
    if len(pts) >= 2 and np.allclose(pts[0], pts[-1]):
        pts = pts[:-1]
    if len(pts) < 3:
        raise GeometryError(f"ring needs >= 3 distinct vertices, got {len(pts)}")
    area = polygon_signed_area(pts)
    if area == 0.0:
        raise GeometryError("degenerate ring with zero area")
    if (area > 0) != (orientation > 0):
        pts = pts[::-1].copy()
    return pts


@dataclass(frozen=True)
class Polygon:
    """A simple polygon: exterior ring plus optional hole rings.

    The exterior is stored counter-clockwise and holes clockwise, matching
    the orientation convention GPU tessellators (and GeoJSON) expect.
    """

    exterior: np.ndarray
    holes: tuple[np.ndarray, ...] = field(default_factory=tuple)

    def __post_init__(self):
        ext = normalize_ring(self.exterior, orientation=1)
        hls = tuple(normalize_ring(h, orientation=-1) for h in self.holes)
        object.__setattr__(self, "exterior", ext)
        object.__setattr__(self, "holes", hls)

    @cached_property
    def bbox(self) -> BBox:
        """Computed once: geometries are immutable and planners read
        this per query.  (``cached_property`` writes straight into
        ``__dict__``, so it composes with the frozen dataclass.)"""
        return BBox.of_points(self.exterior)

    @property
    def area(self) -> float:
        """Net area: exterior area minus hole areas."""
        area = polygon_signed_area(self.exterior)
        for hole in self.holes:
            area += polygon_signed_area(hole)  # holes are CW => negative
        return area

    @property
    def perimeter(self) -> float:
        """Total boundary length including hole boundaries."""
        total = polygon_perimeter(self.exterior)
        for hole in self.holes:
            total += polygon_perimeter(hole)
        return total

    @property
    def centroid(self) -> tuple[float, float]:
        """Area centroid; ignores holes for simplicity (exterior centroid)."""
        return polygon_centroid(self.exterior)

    @property
    def num_vertices(self) -> int:
        return len(self.exterior) + sum(len(h) for h in self.holes)

    def rings(self):
        """Iterate the exterior then each hole ring."""
        yield self.exterior
        yield from self.holes

    @cached_property
    def _ring_edges(self) -> tuple:
        """Edge columns per ring, built once — the accurate join tests
        the same region geometries against every brush gesture."""
        return tuple(ring_edges(r) for r in self.rings())

    def contains_points(self, points) -> np.ndarray:
        """Exact containment mask: inside the exterior and outside holes."""
        pts = as_points(points)
        edges = self._ring_edges
        mask = points_in_ring(pts, self.exterior, edges=edges[0])
        if mask.any():
            for hole, hole_edges in zip(self.holes, edges[1:]):
                inside_hole = points_in_ring(pts[mask], hole,
                                             edges=hole_edges)
                if inside_hole.any():
                    idx = np.flatnonzero(mask)
                    mask[idx[inside_hole]] = False
        return mask

    def contains_point(self, x: float, y: float) -> bool:
        return bool(self.contains_points(np.array([[x, y]]))[0])


@dataclass(frozen=True)
class MultiPolygon:
    """A collection of polygons treated as one region geometry."""

    polygons: tuple[Polygon, ...]

    def __post_init__(self):
        polys = tuple(self.polygons)
        if not polys:
            raise GeometryError("MultiPolygon needs at least one polygon")
        if not all(isinstance(p, Polygon) for p in polys):
            raise GeometryError("MultiPolygon parts must be Polygon instances")
        object.__setattr__(self, "polygons", polys)

    @cached_property
    def bbox(self) -> BBox:
        box = self.polygons[0].bbox
        for poly in self.polygons[1:]:
            box = box.union(poly.bbox)
        return box

    @property
    def area(self) -> float:
        return sum(p.area for p in self.polygons)

    @property
    def perimeter(self) -> float:
        return sum(p.perimeter for p in self.polygons)

    @property
    def centroid(self) -> tuple[float, float]:
        """Area-weighted centroid of the parts."""
        total = 0.0
        cx = 0.0
        cy = 0.0
        for poly in self.polygons:
            a = poly.area
            px, py = poly.centroid
            cx += a * px
            cy += a * py
            total += a
        if total <= 0:
            return self.polygons[0].centroid
        return (cx / total, cy / total)

    @property
    def num_vertices(self) -> int:
        return sum(p.num_vertices for p in self.polygons)

    def rings(self):
        for poly in self.polygons:
            yield from poly.rings()

    def contains_points(self, points) -> np.ndarray:
        pts = as_points(points)
        mask = np.zeros(len(pts), dtype=bool)
        for poly in self.polygons:
            mask |= poly.contains_points(pts)
        return mask

    def contains_point(self, x: float, y: float) -> bool:
        return any(p.contains_point(x, y) for p in self.polygons)


Geometry = Polygon | MultiPolygon


def as_geometry(obj) -> Geometry:
    """Coerce raw vertex input into a Polygon/MultiPolygon.

    Accepts an existing geometry, a vertex array (exterior-only polygon),
    or a list of vertex arrays (first is the exterior, rest are holes).
    """
    if isinstance(obj, (Polygon, MultiPolygon)):
        return obj
    if isinstance(obj, (list, tuple)) and obj and _looks_like_ring_list(obj):
        return Polygon(obj[0], tuple(obj[1:]))
    return Polygon(obj)


def _looks_like_ring_list(obj) -> bool:
    """Heuristic: a list whose elements are themselves vertex sequences."""
    first = obj[0]
    if isinstance(first, np.ndarray):
        return first.ndim == 2
    if isinstance(first, (list, tuple)) and first:
        inner = first[0]
        return isinstance(inner, (list, tuple, np.ndarray))
    return False


def regular_polygon(cx: float, cy: float, radius: float, sides: int) -> Polygon:
    """A regular ``sides``-gon centred at (cx, cy) — handy in tests."""
    if sides < 3:
        raise GeometryError("regular polygon needs >= 3 sides")
    angles = np.linspace(0.0, 2.0 * np.pi, sides, endpoint=False)
    verts = np.column_stack([cx + radius * np.cos(angles), cy + radius * np.sin(angles)])
    return Polygon(verts)


def box_polygon(bbox: BBox) -> Polygon:
    """The polygon covering an axis-aligned box."""
    return Polygon(bbox.corners())
