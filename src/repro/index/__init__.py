"""Spatial index substrate.

The exact comparators in the paper's evaluation are index-based joins;
this package provides the structures they build on: uniform grids for
points and polygons, an STR-packed R-tree and a PR quadtree.
"""

from .grid import PointGridIndex, PolygonGridIndex
from .quadtree import QuadTree
from .rtree import RTree

__all__ = [
    "PointGridIndex",
    "PolygonGridIndex",
    "QuadTree",
    "RTree",
]
