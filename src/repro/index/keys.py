"""Small-range integer keys, ranked and sorted in linear time.

Pixel ids, grid cells and region ids are integers below a known bound,
so they never need a comparison sort: a seen mask ranks them, and
NumPy's stable sort of keys of 16 bits or fewer is a radix sort.  Both
helpers return exactly the arrays their comparison-sort equivalents
give.
"""

from __future__ import annotations

import numpy as np

_DIGIT = 1 << 16


def dense_rank(keys: np.ndarray, size: int
               ) -> tuple[np.ndarray, np.ndarray]:
    """``(active, rank)`` of integer ``keys`` in ``[0, size)``: the
    sorted distinct keys, and each key's index among them — the arrays
    ``np.unique(keys)`` and ``np.searchsorted(active, keys)`` give, in
    O(keys + size)."""
    seen = np.zeros(size, dtype=bool)
    seen[keys] = True
    rank = np.cumsum(seen, dtype=np.int32)
    rank -= 1
    return np.flatnonzero(seen), rank[keys]


def stable_argsort(keys: np.ndarray, bound: int) -> np.ndarray:
    """``np.argsort(keys, kind="stable")`` for integer keys in
    ``[0, bound)``: one radix sort on the narrowest unsigned dtype when
    ``bound <= 2**16``, else least-significant 16-bit digit first."""
    if bound <= _DIGIT:
        return np.argsort(keys.astype(np.min_scalar_type(max(bound - 1, 0))),
                          kind="stable")
    # The uint16 cast keeps the low 16 bits (integer casts wrap).
    low = np.argsort(keys.astype(np.uint16), kind="stable")
    return low[stable_argsort(keys[low] >> 16, -(-bound // _DIGIT))]
