"""Software rasterization pipeline — the GPU substitute.

The original Raster Join runs on the OpenGL rendering pipeline; here the
same stages are implemented in NumPy:

* :class:`Viewport` — the world->pixel transform (fragment-center
  sampling, like the GPU);
* ``scanline`` — polygon fragment generation (scanline fill with the
  even-odd rule) and conservative boundary-pixel detection;
* ``canvas`` — additive blending (``scatter_*``) and the gather join,
  per pixel pair or per pixel run (the raster joins' point pass itself
  is :mod:`repro.core.pipeline`);
* :class:`FragmentTable` — the rasterized form of a region set.
"""

from .canvas import (
    gather_reduce,
    gather_runs,
    gather_sum,
    scatter_count,
    scatter_sum,
)
from .fragments import FragmentTable, IntervalSet, build_fragment_table
from .pyramid import PYRAMID_OPS, reduce2x2
from .scanline import (
    boundary_pixels,
    boundary_pixels_sampled,
    coverage_fragments,
    rasterize_polygon,
    rasterize_triangles,
)
from .viewport import Viewport

__all__ = [
    "FragmentTable",
    "IntervalSet",
    "PYRAMID_OPS",
    "Viewport",
    "boundary_pixels",
    "boundary_pixels_sampled",
    "build_fragment_table",
    "coverage_fragments",
    "reduce2x2",
    "gather_reduce",
    "gather_runs",
    "gather_sum",
    "rasterize_polygon",
    "rasterize_triangles",
    "scatter_count",
    "scatter_sum",
]
