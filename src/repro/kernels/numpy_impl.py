"""NumPy kernel implementations (the always-available reference).

These are the vectorized implementations that used to live inline in
``repro.raster.canvas``; every other kernel must match their outputs
bit for bit.  ``np.bincount`` (with and without weights) and
``np.add.at`` apply contributions in element order, which is the
contract the point pipeline's chunk-by-chunk fold and the compiled
kernels both reproduce.
"""

from __future__ import annotations

import numpy as np


def scatter_count(pixel_ids: np.ndarray, num_pixels: int) -> np.ndarray:
    return np.bincount(pixel_ids, minlength=num_pixels).astype(np.float64)


def scatter_sum(pixel_ids: np.ndarray, weights: np.ndarray,
                num_pixels: int) -> np.ndarray:
    return np.bincount(pixel_ids, weights=weights, minlength=num_pixels)


def scatter_add_at(canvas: np.ndarray, pixel_ids: np.ndarray,
                   values: np.ndarray) -> None:
    np.add.at(canvas, pixel_ids, values)


def gather_sum(canvas: np.ndarray, pixel_ids: np.ndarray,
               group_ids: np.ndarray, num_groups: int) -> np.ndarray:
    if len(pixel_ids) == 0:
        return np.zeros(num_groups, dtype=np.float64)
    return np.bincount(group_ids, weights=canvas[pixel_ids],
                       minlength=num_groups)


def gather_generic(canvas, pixel_ids, group_ids, num_groups, ufunc, fill):
    out = np.full(num_groups, fill, dtype=np.float64)
    if len(pixel_ids) == 0:
        return out
    vals = canvas[pixel_ids]
    live = vals != fill
    if not live.any():
        return out
    vals = vals[live]
    groups = group_ids[live]
    order = np.argsort(groups, kind="stable")
    groups_sorted = groups[order]
    vals_sorted = vals[order]
    starts = np.flatnonzero(
        np.concatenate(([True], groups_sorted[1:] != groups_sorted[:-1])))
    reduced = ufunc.reduceat(vals_sorted, starts)
    out[groups_sorted[starts]] = reduced
    return out


def gather_min(canvas, pixel_ids, group_ids, num_groups, fill=np.inf):
    return gather_generic(canvas, pixel_ids, group_ids, num_groups,
                          np.minimum, fill)


def gather_max(canvas, pixel_ids, group_ids, num_groups, fill=-np.inf):
    return gather_generic(canvas, pixel_ids, group_ids, num_groups,
                          np.maximum, fill)


def expand_ranges(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Expand (start, length) runs into one flat int64 index array.

    The ragged-range trick: element ``k`` of run ``r`` is ``starts[r] +
    k``, i.e. the output position plus ``starts[r] - (first output
    position of r)`` — one ``repeat`` of that per-run shift plus an
    ``arange``, no Python loop; output order is run order then
    position-in-run.
    """
    lengths = np.asarray(lengths, dtype=np.int64)
    total = int(lengths.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    shift = np.asarray(starts, dtype=np.int64) - (np.cumsum(lengths)
                                                   - lengths)
    return np.repeat(shift, lengths) + np.arange(total)


def functions() -> dict:
    return {
        "scatter_count": scatter_count,
        "scatter_sum": scatter_sum,
        "scatter_add_at": scatter_add_at,
        "gather_sum": gather_sum,
        "gather_min": gather_min,
        "gather_max": gather_max,
        "expand_ranges": expand_ranges,
    }
