"""The run-based polygon pass against the frozen key-based one.

:mod:`_reference_boundary` keeps the grid traversal that marked one key
per boundary pixel.  The pass that emits one column range per (edge,
row) must reproduce it exactly: the boundary and covered-boundary
pairs (expanded from the runs on access) and all nine ``IntervalSet``
run arrays, dtypes included.  Besides the
generated scenes of ``test_batched_build``, the same shapes are zoomed
8-64x about an on-screen point, so most of every ring lies off-screen
and the pass is exercised where it clips.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from repro.core.cache import QueryCache
from repro.geometry import MultiPolygon, Polygon
from repro.raster import build_fragment_table

from ._reference_boundary import reference_table
from .test_batched_build import Q, scenes

TABLE_ARRAYS = ("boundary_pixels", "boundary_polys",
                "covered_boundary_pixels", "covered_boundary_polys")
RUN_ARRAYS = ("full_offsets", "full_starts", "full_lengths",
              "partial_offsets", "partial_starts", "partial_lengths",
              "covered_offsets", "covered_starts", "covered_lengths")


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


#: Every pixel view a table expands on access, built from the reference
#: pairs the way the pass stored them before tables kept runs only.
def _reference_views(want: dict) -> dict:
    def expand(starts, lengths):
        return (np.repeat(starts, lengths) + np.arange(lengths.sum())
                - np.repeat(np.cumsum(lengths) - lengths, lengths))

    polys = np.repeat(np.arange(len(want["full_offsets"]) - 1,
                                dtype=np.int32),
                      np.diff(want["full_offsets"]))
    interior = expand(want["full_starts"], want["full_lengths"])
    interior_polys = np.repeat(polys, want["full_lengths"])
    views = {name: want[name] for name in TABLE_ARRAYS}
    views.update(
        interior_pixels=interior, interior_polys=interior_polys,
        covered_pixels=np.concatenate(
            [interior, want["covered_boundary_pixels"]]),
        covered_polys=np.concatenate(
            [interior_polys, want["covered_boundary_polys"]]))
    return views


@given(scenes())
def test_tables_store_runs_only(scene):
    """A cached table is charged exactly its run arrays' bytes and keeps
    no other array; every pixel view equals the reference pairs."""
    geometries, viewport = scene
    cache = QueryCache()
    cache.put(("fragments",), build_fragment_table(geometries, viewport))
    table = cache.get(("fragments",))
    runs = vars(table.intervals)
    assert all(isinstance(v, np.ndarray) for v in runs.values())
    assert cache.total_bytes == sum(v.nbytes for v in runs.values())
    assert not [name for name, value in vars(table).items()
                if isinstance(value, np.ndarray)]
    for name, expected in _reference_views(
            reference_table(geometries, viewport)).items():
        got = getattr(table, name)
        assert got.dtype == expected.dtype, name
        np.testing.assert_array_equal(got, expected, err_msg=name)
