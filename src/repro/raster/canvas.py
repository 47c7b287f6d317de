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

#: Mean run length below which :func:`gather_runs` expands the runs (a
#: ``reduceat`` segment costs about this many expanded pixels).
SHORT_RUN_PIXELS = 4


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
                ufunc, fill: float, order: np.ndarray | None = None
                ) -> np.ndarray:
    """The join step over pixel runs: reduce ``canvas[start:stop]`` of
    every (non-empty) run with ``ufunc`` (``np.add`` / ``np.minimum`` /
    ``np.maximum``) into its group (``fill`` where a group has no run).
    COUNT and MIN/MAX equal a per-pixel gather bitwise; a float SUM is a
    reassociated fold of the same values (see :func:`run_gather`)."""
    return run_gather(len(canvas), starts, stops, group_ids, num_groups,
                      order)(canvas, ufunc, fill)


def run_gather(size: int, starts: np.ndarray, stops: np.ndarray,
               group_ids: np.ndarray, num_groups: int,
               order: np.ndarray | None = None):
    """:func:`gather_runs` prepared once, as ``gather(canvas, ufunc,
    fill)`` for canvases of ``size`` pixels; ``gather.nbytes`` is what
    the plan holds (a fragment table keeps its plans, see
    :meth:`~repro.raster.FragmentTable.gather`).

    Long runs: one ``ufunc.reduceat`` at the interleaved (start, stop)
    bounds in ascending start order (``order``, or as given), whose odd
    outputs (the gaps) are dropped — in start order they telescope to
    one pass over the canvas — then a ``bincount`` / ``ufunc.at`` of the
    per-run results.  Runs averaging under :data:`SHORT_RUN_PIXELS` (a
    segment per run costs more than their pixels) are expanded group by
    group up front, and each group reduces as one segment.
    """
    lengths = stops - starts
    if len(starts) == 0 or lengths.sum() < SHORT_RUN_PIXELS * len(starts):
        if (np.diff(group_ids) < 0).any():
            by_group = np.argsort(group_ids, kind="stable")
            starts, lengths, group_ids = (
                a[by_group] for a in (starts, lengths, group_ids))
        pix = kernels.active().expand_ranges(starts, lengths)
        first = np.searchsorted(group_ids, np.arange(num_groups + 1))
        has = first[1:] > first[:-1]
        pixels = np.zeros(num_groups, dtype=np.intp)
        pixels[has] = np.add.reduceat(lengths, first[:-1][has])
        live = pixels > 0
        heads = (np.cumsum(pixels) - pixels)[live]

        def gather(canvas, ufunc, fill):
            out = np.full(num_groups, fill)
            with np.errstate(invalid="ignore"):  # NaN poisons its group
                out[live] = ufunc.reduceat(canvas[pix], heads)
            return out
        gather.nbytes = pix.nbytes + heads.nbytes + live.nbytes
        return gather
    if order is not None:
        starts, stops, lengths, group_ids = (
            a[order] for a in (starts, stops, lengths, group_ids))
    # ``reduceat`` indices must be < size: a run ending at the canvas
    # end reduces up to its last pixel, which is folded in after (a
    # one-pixel run there is that pixel, reduceat's equal-bounds case).
    last = size - 1
    bounds = np.empty(2 * len(starts), dtype=np.intp)
    bounds[0::2] = starts
    bounds[1::2] = np.minimum(stops, last)
    tail = (stops > last) & (lengths > 1)

    def gather(canvas, ufunc, fill):
        with np.errstate(invalid="ignore"):  # NaN poisons its group
            per_run = ufunc.reduceat(canvas, bounds)[0::2]
            per_run[tail] = ufunc(per_run[tail], canvas[last])
            if ufunc is np.add:
                return np.bincount(group_ids, weights=per_run,
                                   minlength=num_groups)
            out = np.full(num_groups, fill)
            ufunc.at(out, group_ids, per_run)
        return out
    gather.nbytes = bounds.nbytes + tail.nbytes + group_ids.nbytes
    return gather
