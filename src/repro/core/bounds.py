"""Error-bound machinery of the bounded raster join.

The bounded variant misassigns only points that fall in *boundary
pixels* — pixels intersected by a region's boundary.  Two bounds follow:

* **a-priori (geometric)**: every misassigned point lies within one
  pixel diagonal of the true boundary.  Given a user distance tolerance
  ``epsilon`` (in world units), choosing the canvas so that the pixel
  diagonal is <= epsilon yields the paper's "bounded" guarantee; see
  :func:`resolution_for_epsilon`.
* **a-posteriori (numeric)**: after rendering, the point mass actually
  observed in each region's boundary pixels gives hard per-region
  value intervals; see :func:`boundary_mass`.
"""

from __future__ import annotations

import math

import numpy as np

from ..errors import QueryError
from ..geometry import BBox
from ..raster import FragmentTable, Viewport


def resolution_for_epsilon(bbox: BBox, epsilon: float,
                           max_resolution: int = 8192) -> int:
    """Smallest canvas resolution whose pixel diagonal is <= ``epsilon``.

    The returned value is the pixel count along the longer world axis
    (matching :meth:`Viewport.fit`).  Raises when the tolerance would
    need a canvas beyond ``max_resolution`` — callers then fall back to
    tiling or the accurate variant.
    """
    if epsilon <= 0:
        raise QueryError("epsilon must be positive")
    long_side = max(bbox.width, bbox.height)
    if min(bbox.width, bbox.height) <= 0:
        raise QueryError("bbox must have positive extent")
    # Square-ish pixels: pixel_w = long/R and pixel_h ~= pixel_w, so the
    # diagonal is ~ pixel_w * sqrt(2).  Solve R for diag <= epsilon.
    resolution = max(1, math.ceil(long_side * math.sqrt(2.0) / epsilon))
    if resolution > max_resolution:
        raise QueryError(
            f"epsilon={epsilon} needs resolution {resolution} > "
            f"max {max_resolution}; tile the canvas or use the accurate "
            f"variant")
    # Verify against the actual viewport the executor will build; bump
    # until the realized diagonal honors the tolerance.
    while Viewport.fit(bbox, resolution).pixel_diag > epsilon:
        resolution = int(math.ceil(resolution * 1.1)) + 1
        if resolution > max_resolution:
            raise QueryError(
                f"epsilon={epsilon} needs resolution > max {max_resolution}")
    return resolution


def epsilon_for_viewport(viewport: Viewport) -> float:
    """The a-priori distance guarantee a viewport provides (its pixel
    diagonal): no point farther than this from a region boundary can be
    misassigned by the bounded raster join."""
    return viewport.pixel_diag


def boundary_mass(fragments: FragmentTable, mass_canvas: np.ndarray,
                  memo: dict | None = None
                  ) -> tuple[np.ndarray, np.ndarray]:
    """Per-region ``(mass_in, mass_out)``: the ``mass_canvas`` total over
    each region's covered runs, and over the rest of its PARTIAL runs
    (all of them minus the covered), one run gather each (``memo``: see
    :meth:`~repro.raster.IntervalSet.gather`).

    ``mass_canvas`` holds the per-pixel *absolute* contribution mass
    (point count for COUNT, sum of |value| for SUM).  Points in a
    region's covered boundary pixels might truly be outside, and points
    in its uncovered ones might truly be inside, so an additive raster
    estimate has the hard interval ``[estimate - mass_in, estimate +
    mass_out]``.
    """
    mass_in, mass_all = (
        fragments.intervals.gather(f, mass_canvas, fragments.num_polygons,
                                   memo=memo, plans=fragments.plans)
        for f in ("covered", "partial"))
    return mass_in, mass_all - mass_in


def relative_bound_width(lower: np.ndarray, upper: np.ndarray,
                         values: np.ndarray) -> float:
    """Max relative half-width of the bound intervals (a scalar summary
    the accuracy experiments report)."""
    width = np.asarray(upper) - np.asarray(lower)
    vals = np.abs(np.asarray(values))
    live = vals > 0
    if not live.any():
        return 0.0
    return float((width[live] / (2.0 * vals[live])).max())
