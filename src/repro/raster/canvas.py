"""Canvases (framebuffers) and blending scatter operations.

The GPU raster join accumulates point contributions into framebuffer
pixels with additive (or min/max) blending; these functions are the
NumPy-style equivalents.  A canvas is simply a flat ``float64`` array
with one slot per pixel, indexed by flat pixel id.

The actual loops live in :mod:`repro.kernels` (NumPy reference plus an
optional numba-compiled drop-in); this module validates inputs and
dispatches to the process-global selected kernel, so every scatter and
gather call site in the repo picks up the compiled kernels at once.
"""

from __future__ import annotations

import numpy as np

from .. import kernels
from ..errors import ExecutionError
from ..kernels import numpy_impl as _numpy_impl


def scatter_count(pixel_ids: np.ndarray, num_pixels: int) -> np.ndarray:
    """Additive blending of unit contributions: point count per pixel."""
    return kernels.active().scatter_count(pixel_ids, int(num_pixels))


def scatter_sum(pixel_ids: np.ndarray, weights: np.ndarray,
                num_pixels: int) -> np.ndarray:
    """Additive blending of weighted contributions: value sum per pixel."""
    if len(pixel_ids) != len(weights):
        raise ExecutionError("pixel_ids and weights length mismatch")
    return kernels.active().scatter_sum(pixel_ids, weights, int(num_pixels))


def gather_sum(canvas: np.ndarray, pixel_ids: np.ndarray,
               group_ids: np.ndarray, num_groups: int) -> np.ndarray:
    """Sum canvas values over fragments grouped by polygon id.

    This is the join step: fragment ``k`` contributes
    ``canvas[pixel_ids[k]]`` to group ``group_ids[k]``.
    """
    if len(pixel_ids) != len(group_ids):
        raise ExecutionError("pixel_ids and group_ids length mismatch")
    return kernels.active().gather_sum(canvas, pixel_ids, group_ids,
                                       int(num_groups))


def gather_reduce(canvas: np.ndarray, pixel_ids: np.ndarray,
                  group_ids: np.ndarray, num_groups: int,
                  ufunc, fill: float) -> np.ndarray:
    """MIN/MAX join step: reduce canvas values per group, skipping the
    canvas fill value (pixels no point landed in)."""
    kernel = kernels.active()
    if ufunc is np.minimum:
        return kernel.gather_min(canvas, pixel_ids, group_ids,
                                 int(num_groups), fill)
    if ufunc is np.maximum:
        return kernel.gather_max(canvas, pixel_ids, group_ids,
                                 int(num_groups), fill)
    # Exotic ufuncs stay on the NumPy reference path.
    return _numpy_impl.gather_generic(canvas, pixel_ids, group_ids,
                                      int(num_groups), ufunc, fill)


def gather_runs(canvas: np.ndarray, starts: np.ndarray, stops: np.ndarray,
                group_ids: np.ndarray, num_groups: int,
                ufunc, fill: float) -> np.ndarray:
    """The join step over pixel runs: reduce ``canvas[start:stop]`` of
    every run with ``ufunc`` (``np.add`` / ``np.minimum`` /
    ``np.maximum``), then fold the per-run results into their groups
    (``fill`` where a group has no run).

    One ``ufunc.reduceat`` at the interleaved (start, stop) bounds.  Its
    odd outputs reduce the gaps between consecutive runs and are
    dropped; ``starts`` must ascend so those gaps telescope to at most
    one pass over the canvas (in any other order each gap may reach back
    across most of it).  COUNT and MIN/MAX equal a per-pixel gather
    bitwise; a float SUM is a reassociated fold of the same values.
    """
    if len(starts) == 0:
        return np.full(num_groups, fill)
    # ``reduceat`` indices must be < len(canvas): a run ending at the
    # canvas end reduces up to its last pixel, which is folded in after
    # (a one-pixel run there is that pixel, reduceat's equal-bounds case).
    last = len(canvas) - 1
    bounds = np.empty(2 * len(starts), dtype=np.intp)
    bounds[0::2] = starts
    bounds[1::2] = np.minimum(stops, last)
    with np.errstate(invalid="ignore"):  # a NaN pixel poisons its group
        per_run = ufunc.reduceat(canvas, bounds)[0::2]
        tail = (stops > last) & (stops - starts > 1)
        per_run[tail] = ufunc(per_run[tail], canvas[last])
        if ufunc is np.add:
            return np.bincount(group_ids, weights=per_run,
                               minlength=num_groups)
        out = np.full(num_groups, fill)
        ufunc.at(out, group_ids, per_run)
    return out
