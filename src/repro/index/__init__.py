"""Spatial index substrate.

The paper's exact comparator is an index join over a uniform grid; this
package provides the point grid it builds on.
"""

from .grid import PointGridIndex

__all__ = ["PointGridIndex"]
