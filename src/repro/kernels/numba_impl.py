"""Optional numba-jitted kernels.

Registered only when numba imports; the container/CI leg without numba
never touches this module past the guarded import.  Every jitted loop
applies contributions in the same element order as the NumPy reference
(``np.bincount`` and ``np.add.at`` are element-sequential C loops), and
the min/max loops reproduce NumPy's NaN propagation (``np.minimum`` is
NaN-sticky), so outputs are bitwise-identical kernel to kernel.

The wrappers normalize dtypes before entering jitted code so call sites
keep passing whatever ``repro.raster.canvas`` accepted before.
"""

from __future__ import annotations

import numpy as np

try:
    from numba import njit

    NUMBA_AVAILABLE = True
except Exception:  # pragma: no cover - exercised by the no-numba CI leg
    NUMBA_AVAILABLE = False

    def njit(*args, **kwargs):  # type: ignore[misc]
        raise RuntimeError("numba is not available")


if NUMBA_AVAILABLE:

    @njit(cache=True)
    def _scatter_count(pixel_ids, num_pixels):
        out = np.zeros(num_pixels, dtype=np.float64)
        for i in range(pixel_ids.shape[0]):
            out[pixel_ids[i]] += 1.0
        return out

    @njit(cache=True)
    def _scatter_sum(pixel_ids, weights, num_pixels):
        out = np.zeros(num_pixels, dtype=np.float64)
        for i in range(pixel_ids.shape[0]):
            out[pixel_ids[i]] += weights[i]
        return out

    @njit(cache=True)
    def _scatter_add_at(canvas, pixel_ids, values):
        for i in range(pixel_ids.shape[0]):
            canvas[pixel_ids[i]] += values[i]

    @njit(cache=True)
    def _gather_sum(canvas, pixel_ids, group_ids, num_groups):
        out = np.zeros(num_groups, dtype=np.float64)
        for k in range(pixel_ids.shape[0]):
            out[group_ids[k]] += canvas[pixel_ids[k]]
        return out

    @njit(cache=True)
    def _gather_min(canvas, pixel_ids, group_ids, num_groups, fill):
        out = np.full(num_groups, fill)
        for k in range(pixel_ids.shape[0]):
            v = canvas[pixel_ids[k]]
            if v != fill:
                g = group_ids[k]
                cur = out[g]
                if cur == cur and (v < cur or v != v):
                    out[g] = v
        return out

    @njit(cache=True)
    def _gather_max(canvas, pixel_ids, group_ids, num_groups, fill):
        out = np.full(num_groups, fill)
        for k in range(pixel_ids.shape[0]):
            v = canvas[pixel_ids[k]]
            if v != fill:
                g = group_ids[k]
                cur = out[g]
                if cur == cur and (v > cur or v != v):
                    out[g] = v
        return out

    @njit(cache=True)
    def _expand_ranges(starts, lengths, total):
        out = np.empty(total, dtype=np.int64)
        pos = 0
        for i in range(starts.shape[0]):
            s = starts[i]
            for j in range(lengths[i]):
                out[pos] = s + j
                pos += 1
        return out


def _ids(a):
    return np.ascontiguousarray(a, dtype=np.int64)


def _vals(a):
    return np.ascontiguousarray(a, dtype=np.float64)


def scatter_count(pixel_ids, num_pixels):
    return _scatter_count(_ids(pixel_ids), num_pixels)


def scatter_sum(pixel_ids, weights, num_pixels):
    return _scatter_sum(_ids(pixel_ids), _vals(weights), num_pixels)


def scatter_add_at(canvas, pixel_ids, values):
    _scatter_add_at(canvas, _ids(pixel_ids), _vals(values))


def gather_sum(canvas, pixel_ids, group_ids, num_groups):
    return _gather_sum(_vals(canvas), _ids(pixel_ids), _ids(group_ids),
                       num_groups)


def gather_min(canvas, pixel_ids, group_ids, num_groups, fill=np.inf):
    return _gather_min(_vals(canvas), _ids(pixel_ids), _ids(group_ids),
                       num_groups, fill)


def gather_max(canvas, pixel_ids, group_ids, num_groups, fill=-np.inf):
    return _gather_max(_vals(canvas), _ids(pixel_ids), _ids(group_ids),
                       num_groups, fill)


def expand_ranges(starts, lengths):
    lengths = _ids(lengths)
    total = int(lengths.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    return _expand_ranges(_ids(starts), lengths, total)


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
