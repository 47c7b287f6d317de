"""The run-based polygon pass against the frozen key-based one.

:mod:`_reference_boundary` keeps the grid traversal that marked one key
per boundary pixel.  The pass that emits one column range per (edge,
row) must reproduce it exactly: the boundary pairs, ``covered_index``
and all six ``IntervalSet`` arrays, dtypes included.  Besides the
generated scenes of ``test_batched_build``, the same shapes are zoomed
8-64x about an on-screen point, so most of every ring lies off-screen
and the pass is exercised where it clips.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from repro.geometry import MultiPolygon, Polygon
from repro.raster import build_fragment_table

from ._reference_boundary import reference_table
from .test_batched_build import Q, scenes

TABLE_ARRAYS = ("boundary_pixels", "boundary_polys", "covered_index")
RUN_ARRAYS = ("full_offsets", "full_starts", "full_lengths",
              "partial_offsets", "partial_starts", "partial_lengths")


def _scaled(geometry, cx: float, cy: float, factor: int):
    def ring(points):
        return np.column_stack([cx + factor * (points[:, 0] - cx),
                                cy + factor * (points[:, 1] - cy)])

    if isinstance(geometry, MultiPolygon):
        return MultiPolygon(tuple(_scaled(p, cx, cy, factor)
                                  for p in geometry.polygons))
    return Polygon(ring(geometry.exterior),
                   holes=[ring(h) for h in geometry.holes])


@st.composite
def zoomed_scenes(draw):
    """A scene's shapes scaled 8-64x about a lattice point on screen.
    The lattice and the integer factor keep every vertex exact."""
    geometries, viewport = draw(scenes())
    i = draw(st.integers(0, viewport.width * Q)) / Q
    j = draw(st.integers(0, viewport.height * Q)) / Q
    cx = viewport.bbox.xmin + i * viewport.pixel_width
    cy = viewport.bbox.ymin + j * viewport.pixel_height
    factor = draw(st.integers(8, 64))
    return [_scaled(g, cx, cy, factor) for g in geometries], viewport


def _assert_matches_reference(geometries, viewport) -> None:
    table = build_fragment_table(geometries, viewport)
    want = reference_table(geometries, viewport)
    for owner, names in ((table, TABLE_ARRAYS),
                         (table.intervals, RUN_ARRAYS)):
        for name in names:
            got = getattr(owner, name)
            assert got.dtype == want[name].dtype, name
            np.testing.assert_array_equal(got, want[name], err_msg=name)


@given(scenes())
def test_runs_equal_reference_keys(scene):
    _assert_matches_reference(*scene)


@given(zoomed_scenes())
def test_zoomed_runs_equal_reference_keys(scene):
    _assert_matches_reference(*scene)
