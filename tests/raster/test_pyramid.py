"""Property tests for the mip-style canvas reductions.

The pyramid contract: every level's COUNT/SUM plane is *exactly* the
2x2 block-sum of the level below (identity-padded at odd edges), and
MIN/MAX planes propagate bounds.  Sum-preservation is what lets a
zoom-out serve from cached finer blocks without re-scattering.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ExecutionError
from repro.raster import PYRAMID_OPS, reduce2x2


def _block_sum_reference(plane: np.ndarray) -> np.ndarray:
    """Padded 2x2 block sum, written independently of reduce2x2."""
    h, w = plane.shape
    padded = np.zeros((h + h % 2, w + w % 2))
    padded[:h, :w] = plane
    return (padded[0::2, 0::2] + padded[0::2, 1::2]
            + padded[1::2, 0::2] + padded[1::2, 1::2])


@pytest.mark.parametrize("shape", [(8, 8), (7, 7), (1, 1), (5, 8),
                                   (8, 5), (3, 1), (128, 128)])
def test_count_reduction_is_block_sum(shape):
    gen = np.random.default_rng(hash(shape) % 2**32)
    plane = gen.integers(0, 50, shape).astype(np.float64)
    out = reduce2x2(plane, "sum")
    np.testing.assert_array_equal(out, _block_sum_reference(plane))
    # Sum-preserving: total mass is invariant under reduction.
    assert out.sum() == plane.sum()


@pytest.mark.parametrize("shape", [(6, 6), (7, 5), (9, 9)])
def test_sum_reduction_exact_for_integers(shape):
    gen = np.random.default_rng(7)
    plane = gen.integers(-1000, 1000, shape).astype(np.float64)
    out = reduce2x2(plane, "sum")
    np.testing.assert_array_equal(out, _block_sum_reference(plane))


def test_empty_margins_stay_empty():
    """Identity padding: odd-edge blocks reduce as if padded with the
    op's identity, so empty margins never invent mass."""
    plane = np.zeros((5, 5))
    plane[:4, :4] = 1.0
    out = reduce2x2(plane, "sum")
    assert out.shape == (3, 3)
    assert out[2, 2] == 0.0  # the padded corner
    assert out[:2, :2].sum() == 16.0


def test_min_max_propagate_bounds():
    gen = np.random.default_rng(11)
    plane = gen.normal(size=(9, 7))
    lo = reduce2x2(plane, "min")
    hi = reduce2x2(plane, "max")
    assert lo.shape == hi.shape == (5, 4)
    assert lo.min() == plane.min()
    assert hi.max() == plane.max()
    assert np.all(lo <= hi)


def test_min_identity_padding_is_inf():
    """A padded MIN cell with no real pixels stays +inf (empty), and a
    half-padded cell takes only the real pixels' min."""
    plane = np.full((3, 3), np.inf)
    plane[0, 0] = -2.0
    plane[2, 2] = 5.0
    out = reduce2x2(plane, "min")
    assert out[0, 0] == -2.0
    assert out[1, 1] == 5.0
    assert out[0, 1] == np.inf


def test_reduce2x2_rejects_bad_inputs():
    with pytest.raises(ExecutionError):
        reduce2x2(np.zeros((4, 4)), "median")
    with pytest.raises(ExecutionError):
        reduce2x2(np.zeros(16), "sum")


def test_pyramid_ops_cover_all_kinds():
    assert PYRAMID_OPS == {"count": "sum", "sum": "sum", "mass": "sum",
                           "min": "min", "max": "max"}
