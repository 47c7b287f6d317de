"""A zoomed polygon pass costs what is on screen.

The boundary pass takes rows only inside the viewport and clips every
bound in float before an integer cast, so a polygon whose edges reach
far off-screen costs its on-screen (edge, row) pairs — not the grid
lines its edges cross outside the window — and a vertex too far out
for int64 still rasterizes.
"""

from __future__ import annotations

import tracemalloc

import numpy as np

from repro.geometry import BBox, Polygon
from repro.raster import Viewport, build_fragment_table

VP = Viewport(BBox(0, 0, 64, 64), 64, 64)
REACH = 2.0 ** 20  # ~1e6 pixels off-screen


def _centers(viewport: Viewport) -> np.ndarray:
    ix, iy = np.meshgrid(np.arange(viewport.width),
                         np.arange(viewport.height))
    return np.column_stack(viewport.pixel_center(ix.ravel(), iy.ravel()))


def _assert_coverage(table, geometry, viewport) -> None:
    """Interior + covered-boundary pixels are exactly the pixels whose
    center the geometry contains."""
    covered = np.sort(table.covered_pixels[table.covered_polys == 0])
    np.testing.assert_array_equal(
        covered, np.flatnonzero(geometry.contains_points(_centers(viewport))))


def test_far_reaching_triangle_builds_in_on_screen_memory():
    # The diagonal y = x + 10 runs through the window; the other two
    # edges stay ~1e6 pixels away.  Samples on the diagonal at
    # sixteenths of a pixel are exact points of the edge.
    diagonal = ((-REACH, -REACH + 10), (REACH, REACH + 10))
    triangle = Polygon([diagonal[0], diagonal[1], (-REACH, REACH + 10)])
    tracemalloc.start()
    try:
        table = build_fragment_table([triangle], VP)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2 ** 20, f"peak {peak / 2 ** 20:.1f} MB"

    _assert_coverage(table, triangle, VP)
    s = np.arange(-10 * 16, 74 * 16) / 16
    ids, valid = VP.pixel_ids_of(s, s + 10)
    assert valid.any()
    assert np.isin(ids[valid], table.boundary_pixels).all()
    # The cover is the diagonal band, not the window: boundary-sized.
    assert 0 < table.num_boundary_fragments < 4 * VP.width


def test_vertices_beyond_int64_are_clipped_in_float():
    # Crossing counts of these edges overflow int64; the window lies
    # wholly inside the triangle, so every pixel is FULL.
    with np.errstate(over="ignore"):  # inf crossings, as contains_points
        triangle = Polygon([(-1e300, -1.0), (1e300, -1.0), (0.0, 1e300)])
        table = build_fragment_table([triangle], VP)
        _assert_coverage(table, triangle, VP)
    assert table.num_boundary_fragments == 0
    assert table.num_interior_fragments == VP.num_pixels
    assert table.intervals.num_full_runs == VP.height
