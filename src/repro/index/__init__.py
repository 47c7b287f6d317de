"""Spatial index substrate.

The paper's exact comparator is an index join over a uniform grid; this
package provides the point grid it builds on, and the linear-time
ranks and sorts of small-range integer keys (cells, pixels, regions).
"""

from .grid import PointGridIndex
from .keys import dense_rank, stable_argsort

__all__ = ["PointGridIndex", "dense_rank", "stable_argsort"]
