"""Comparator implementations from the paper's evaluation.

* :func:`naive_join` — brute-force exact ground truth;
* :func:`grid_index_join` — uniform-grid index join (the paper's
  index-based baseline);
* :class:`DataCube` — traditional pre-aggregation, fast only for
  anticipated queries;
* :func:`assign_regions` — exact point->region labeling used by tests
  and the cube.
"""

from .assign import assign_regions
from .cube import DataCube
from .grid_join import grid_index_join
from .naive import naive_join

__all__ = [
    "DataCube",
    "assign_regions",
    "grid_index_join",
    "naive_join",
]
