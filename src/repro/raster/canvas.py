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


class PixelBuckets:
    """CSR mapping from pixel id to the points that landed in it.

    Built once per (table, viewport) pass; the accurate raster join uses
    it to fetch the candidate points of each boundary pixel without
    touching the rest of the data.
    """

    def __init__(self, pixel_ids: np.ndarray, num_pixels: int,
                 point_ids: np.ndarray | None = None):
        self.num_pixels = int(num_pixels)
        if point_ids is None:
            point_ids = np.arange(len(pixel_ids), dtype=np.int64)
        # Bucket membership is order-free; default sort beats radix here.
        order = np.argsort(pixel_ids)
        self.order = point_ids[order]
        # Offsets by counting, not by binary-searching every pixel id:
        # O(points + pixels) instead of O(pixels log points).
        counts = np.bincount(pixel_ids, minlength=num_pixels)
        self.offsets = np.concatenate(
            [np.zeros(1, dtype=np.int64), np.cumsum(counts, dtype=np.int64)])

    def points_in_pixel(self, pixel_id: int) -> np.ndarray:
        """Ids of points in one pixel."""
        return self.order[self.offsets[pixel_id] : self.offsets[pixel_id + 1]]

    def points_in_pixels(self, pixel_ids: np.ndarray) -> np.ndarray:
        """Ids of all points in any of the given pixels (vectorized).

        Per-pixel (start, length) runs of the CSR order array are
        expanded into one flat index array by the kernel's
        ``expand_ranges`` — no Python loop.
        """
        if len(pixel_ids) == 0:
            return np.empty(0, dtype=np.int64)
        starts = self.offsets[pixel_ids]
        lengths = self.offsets[pixel_ids + 1] - starts
        idx = kernels.active().expand_ranges(starts, lengths)
        if len(idx) == 0:
            return np.empty(0, dtype=np.int64)
        return self.order[idx]

    def points_in_runs(self, run_starts: np.ndarray,
                       run_lengths: np.ndarray) -> np.ndarray:
        """Ids of all points in runs of *consecutive* pixels.

        A run of ``length`` consecutive pixel ids maps to one contiguous
        slice of the CSR order array, so the candidate fetch costs one
        range per *interval run* instead of one per pixel — the payoff
        of the raster-interval classification.  Output order equals
        ``points_in_pixels`` over the expanded pixel list.
        """
        if len(run_starts) == 0:
            return np.empty(0, dtype=np.int64)
        lo = self.offsets[run_starts]
        hi = self.offsets[run_starts + run_lengths]
        idx = kernels.active().expand_ranges(lo, hi - lo)
        if len(idx) == 0:
            return np.empty(0, dtype=np.int64)
        return self.order[idx]

    def points_in_grouped_runs(self, run_starts: np.ndarray,
                               run_lengths: np.ndarray,
                               group_offsets: np.ndarray
                               ) -> tuple[np.ndarray, np.ndarray]:
        """One expansion for *all* groups' runs: ``(point_ids,
        offsets)`` where group ``g`` owns ``point_ids[offsets[g]:
        offsets[g + 1]]`` — the same ids, in the same order, that
        per-group :meth:`points_in_runs` calls would produce, without
        paying the expansion overhead once per group.
        """
        lo = self.offsets[run_starts]
        counts = self.offsets[run_starts + run_lengths] - lo
        cum = np.concatenate([np.zeros(1, dtype=np.int64),
                              np.cumsum(counts, dtype=np.int64)])
        idx = kernels.active().expand_ranges(lo, counts)
        ids = self.order[idx] if len(idx) else np.empty(0, dtype=np.int64)
        return ids, cum[group_offsets]

    def counts_in_pixels(self, pixel_ids: np.ndarray) -> np.ndarray:
        """Number of points per given pixel."""
        return self.offsets[pixel_ids + 1] - self.offsets[pixel_ids]
