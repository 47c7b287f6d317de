"""Canvas pyramid: mip-style 2x reductions of blended canvases.

A canvas at pyramid level ``L`` has pixels that each cover a ``2 x 2``
block of level ``L-1`` pixels (and therefore ``2^L x 2^L`` base
pixels).  Reductions are chosen per canvas kind so the pyramid is
*lossless for its aggregate*:

* ``sum`` — COUNT/SUM/mass canvases reduce by 2x2 block **sum**, which
  is sum-preserving: the total over any aligned window is identical at
  every level (exactly, for the integer-valued canvases COUNT produces);
* ``min`` / ``max`` — bound canvases reduce by 2x2 block min/max, which
  propagates the true extremum of the covered base pixels.

Odd canvas dimensions are handled by padding the ragged edge with the
reduction's identity (``0`` for sum, ``+inf`` for min, ``-inf`` for
max), so a margin pixel at a coarse level aggregates exactly the base
pixels that exist and nothing else.
"""

from __future__ import annotations

import numpy as np

from ..errors import ExecutionError

#: Identity element of each reduction (used to pad odd dimensions).
REDUCE_IDENTITY = {"sum": 0.0, "min": np.inf, "max": -np.inf}

#: Canvas kind -> reduction op taking it one level up.
PYRAMID_OPS = {
    "count": "sum",
    "sum": "sum",
    "mass": "sum",
    "min": "min",
    "max": "max",
}


def reduce2x2(plane: np.ndarray, op: str = "sum") -> np.ndarray:
    """One pyramid step: reduce a 2-D canvas by 2x2 blocks.

    ``plane`` is ``(H, W)``; the result is ``(ceil(H/2), ceil(W/2))``.
    Odd dimensions are padded with the op's identity so edge pixels
    reduce only the cells that exist.
    """
    if op not in REDUCE_IDENTITY:
        raise ExecutionError(f"unknown pyramid reduction {op!r}")
    plane = np.asarray(plane)
    if plane.ndim != 2:
        raise ExecutionError(
            f"reduce2x2 expects a 2-D canvas, got shape {plane.shape}")
    h, w = plane.shape
    if h % 2 or w % 2:
        padded = np.full(((h + 1) // 2 * 2, (w + 1) // 2 * 2),
                         REDUCE_IDENTITY[op], dtype=np.float64)
        padded[:h, :w] = plane
        plane = padded
        h, w = plane.shape
    blocks = plane.reshape(h // 2, 2, w // 2, 2)
    if op == "sum":
        # Fixed pairwise order (top-left + top-right) + (bottom-left +
        # bottom-right): deterministic, and exact for the integer-valued
        # canvases this is applied to.
        return (blocks[:, 0, :, 0] + blocks[:, 0, :, 1]) + (
            blocks[:, 1, :, 0] + blocks[:, 1, :, 1])
    if op == "min":
        return blocks.min(axis=(1, 3))
    return blocks.max(axis=(1, 3))

