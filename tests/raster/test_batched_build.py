"""Contract of the fragment-table builder, on generated scenes.

The builder rasterizes a whole region set in one batched sweep; these
tests pin what every consumer relies on without looking at how it is
built (they hold for a per-polygon builder too):

1. *Batch invariance* — the table of ``[g0..gn]`` is the per-geometry
   tables concatenated, polygon ids offset: all six pair arrays and all
   six ``IntervalSet`` arrays, dtypes included.
2. *Coverage* — interior + covered-boundary pixels are exactly the
   pixels whose center the geometry contains.
3. *Boundary conservativeness* — every pixel whose half-open square a
   boundary point falls in is a boundary pixel.
4. *Structure* — interior and boundary are disjoint per polygon,
   covered-boundary is a subset of boundary, runs are sorted, never
   touch inside a row, never span a row wrap, and expand to the pixels.

Scenes are drawn on a lattice of sixteenths of a pixel over viewports
with dyadic origins and pixel sizes, so every vertex, pixel center and
boundary sample below is exact in float64: a vertex *on* a grid line or
a pixel center is on it exactly (the adversarial cases), and the
reference classifications are not themselves subject to rounding.
"""

from __future__ import annotations

import numpy as np
from hypothesis import assume, given
from hypothesis import strategies as st

from repro.errors import GeometryError
from repro.geometry import BBox, MultiPolygon, Polygon
from repro.raster import Viewport, build_fragment_table

#: Vertex lattice: sixteenths of a pixel.
Q = 16

PAIR_ARRAYS = ("interior_pixels", "interior_polys", "boundary_pixels",
               "boundary_polys", "covered_boundary_pixels",
               "covered_boundary_polys")
RUN_KINDS = ("full", "partial")


# -- scene strategies ----------------------------------------------------------

@st.composite
def viewports(draw) -> Viewport:
    """Non-square grids with non-unit, unequal pixel sizes."""
    width = draw(st.integers(8, 40))
    height = draw(st.integers(3, 32))
    pw = draw(st.sampled_from([0.5, 0.75, 1.5, 2.0]))
    ph = draw(st.sampled_from([0.5, 0.75, 1.5, 2.0]))
    x0 = draw(st.sampled_from([-8.0, 0.0, 3.25]))
    y0 = draw(st.sampled_from([-8.0, 0.0, 3.25]))
    return Viewport(BBox(x0, y0, x0 + width * pw, y0 + height * ph),
                    width, height)


def _to_world(viewport: Viewport, grid_points) -> np.ndarray:
    pts = np.asarray(grid_points, dtype=np.float64)
    return np.column_stack([
        viewport.bbox.xmin + pts[:, 0] * viewport.pixel_width,
        viewport.bbox.ymin + pts[:, 1] * viewport.pixel_height])


@st.composite
def _centers(draw, viewport: Viewport) -> tuple[float, float]:
    """Anywhere from well off-screen to mid-canvas (grid units)."""
    return (draw(st.floats(-0.4 * viewport.width, 1.4 * viewport.width)),
            draw(st.floats(-0.4 * viewport.height, 1.4 * viewport.height)))


@st.composite
def _star_ring(draw, cx: float, cy: float, radius: float,
               concave: bool) -> np.ndarray:
    """A ring star-shaped about (cx, cy) — hence simple — snapped to the
    lattice.  Equal radii give a convex n-gon, drawn radii a concave."""
    n = draw(st.integers(3, 9))
    angles = draw(st.floats(0, 2 * np.pi)) + 2 * np.pi * np.arange(n) / n
    radii = np.full(n, radius)
    if concave:
        radii = radius * np.array(draw(st.lists(
            st.floats(0.35, 1.0), min_size=n, max_size=n)))
    pts = np.column_stack([cx + radii * np.cos(angles),
                           cy + radii * np.sin(angles)])
    return np.round(pts * Q) / Q


@st.composite
def _ngon(draw, viewport: Viewport, center=None, max_radius=None) -> Polygon:
    cx, cy = center or draw(_centers(viewport))
    radius = draw(st.floats(1.5, max_radius
                            or max(viewport.width, viewport.height) / 2))
    ring = draw(_star_ring(cx, cy, radius, draw(st.booleans())))
    return Polygon(_to_world(viewport, ring))


@st.composite
def _holed(draw, viewport: Viewport) -> Polygon:
    cx, cy = draw(_centers(viewport))
    radius = draw(st.floats(3.0, max(viewport.width, viewport.height) / 2))
    exterior = draw(_star_ring(cx, cy, radius, False))
    # A convex n-gon's inradius is >= radius / 2: the hole stays inside.
    hole = draw(_star_ring(cx, cy, draw(st.floats(0.2, 0.4)) * radius, False))
    return Polygon(_to_world(viewport, exterior),
                   holes=[_to_world(viewport, hole)])


@st.composite
def _multipolygon(draw, viewport: Viewport) -> MultiPolygon:
    """Two or three parts inside disjoint discs, so the union the exact
    predicate tests equals the even-odd rule the rasterizer applies."""
    cx, cy = draw(_centers(viewport))
    reach = draw(st.floats(1.5, 6.0))
    parts = [draw(_ngon(viewport, (cx + k * (2 * reach + 2), cy), reach))
             for k in range(draw(st.integers(2, 3)))]
    return MultiPolygon(tuple(parts))


@st.composite
def _aligned_rect(draw, viewport: Viewport) -> Polygon:
    """Edges exactly on pixel grid lines (offset 0) or exactly through
    pixel centers (offset 1/2), possibly hanging off-screen."""
    offset = draw(st.sampled_from([0.0, 0.5]))
    i0 = draw(st.integers(-3, viewport.width))
    j0 = draw(st.integers(-3, viewport.height))
    i1 = i0 + draw(st.integers(1, viewport.width))
    j1 = j0 + draw(st.integers(1, viewport.height))
    corners = np.array([[i0, j0], [i1, j0], [i1, j1], [i0, j1]]) + offset
    return Polygon(_to_world(viewport, corners))


@st.composite
def _sliver(draw, viewport: Viewport) -> Polygon:
    """A sheared strip less than a pixel high."""
    x = draw(st.integers(-2 * Q, viewport.width * Q)) / Q
    y = draw(st.integers(-2 * Q, viewport.height * Q)) / Q
    length = draw(st.integers(2, 20))
    shear = draw(st.integers(-2 * Q, 2 * Q)) / Q
    thick = draw(st.integers(1, Q - 1)) / Q
    return Polygon(_to_world(viewport, [
        [x, y], [x + length, y + shear], [x + length, y + shear + thick],
        [x, y + thick]]))


@st.composite
def scenes(draw) -> tuple[list, Viewport]:
    viewport = draw(viewports())
    shape = st.one_of(_ngon(viewport), _holed(viewport),
                      _multipolygon(viewport), _aligned_rect(viewport),
                      _sliver(viewport))
    try:
        geometries = draw(st.lists(shape, min_size=1, max_size=12))
    except GeometryError:  # snapping collapsed a ring
        assume(False)
    return geometries, viewport


# -- helpers -------------------------------------------------------------------

def _runs(table, kind: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    iv = table.intervals
    return (getattr(iv, f"{kind}_offsets"), getattr(iv, f"{kind}_starts"),
            getattr(iv, f"{kind}_lengths"))


def _pixels_of(table, prefix: str, gid: int) -> np.ndarray:
    return getattr(table, f"{prefix}_pixels")[
        getattr(table, f"{prefix}_polys") == gid]


def _expand(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    if len(starts) == 0:
        return np.empty(0, dtype=np.int64)
    return np.concatenate([np.arange(s, s + n)
                           for s, n in zip(starts, lengths)])


def _assert_same_array(got: np.ndarray, want: np.ndarray, name: str) -> None:
    assert got.dtype == want.dtype, name
    np.testing.assert_array_equal(got, want, err_msg=name)


# -- properties ----------------------------------------------------------------

@given(scenes())
def test_batch_invariance(scene):
    geometries, viewport = scene
    whole = build_fragment_table(geometries, viewport)
    singles = [build_fragment_table([g], viewport) for g in geometries]
    assert whole.num_polygons == len(geometries)

    for name in PAIR_ARRAYS:
        parts = [getattr(t, name) + gid if name.endswith("_polys")
                 else getattr(t, name) for gid, t in enumerate(singles)]
        _assert_same_array(getattr(whole, name), np.concatenate(parts), name)
    assert whole.interior_pixels.dtype == np.int64
    assert whole.interior_polys.dtype == np.int32

    for kind in RUN_KINDS:
        offsets, starts, lengths = _runs(whole, kind)
        single_runs = [_runs(t, kind) for t in singles]
        counts = [len(s) for _, s, _ in single_runs]
        _assert_same_array(
            offsets, np.concatenate([[0], np.cumsum(counts)]).astype(
                np.int64), f"{kind}_offsets")
        _assert_same_array(
            starts, np.concatenate([s for _, s, _ in single_runs]),
            f"{kind}_starts")
        _assert_same_array(
            lengths, np.concatenate([n for _, _, n in single_runs]),
            f"{kind}_lengths")

    _assert_same_array(
        whole.covered_pixels,
        np.concatenate([whole.interior_pixels,
                        whole.covered_boundary_pixels]), "covered_pixels")
    _assert_same_array(
        whole.covered_polys,
        np.concatenate([whole.interior_polys,
                        whole.covered_boundary_polys]), "covered_polys")


@given(scenes())
def test_coverage_is_pixel_center_classification(scene):
    geometries, viewport = scene
    table = build_fragment_table(geometries, viewport)
    ix, iy = np.meshgrid(np.arange(viewport.width),
                         np.arange(viewport.height))
    centers = np.column_stack(viewport.pixel_center(ix.ravel(), iy.ravel()))
    for gid, geometry in enumerate(geometries):
        covered = np.sort(np.concatenate([
            _pixels_of(table, "interior", gid),
            _pixels_of(table, "covered_boundary", gid)]))
        np.testing.assert_array_equal(
            covered, np.flatnonzero(geometry.contains_points(centers)))


@given(scenes())
def test_boundary_covers_every_pixel_the_rings_touch(scene):
    geometries, viewport = scene
    table = build_fragment_table(geometries, viewport)
    # 65 samples per edge at t = k/64: with lattice vertices,
    # a + t * (b - a) is exact, so every sample is a true boundary point.
    t = (np.arange(65) / 64)[:, None]
    for gid, geometry in enumerate(geometries):
        marked = _pixels_of(table, "boundary", gid)
        for ring in geometry.rings():
            a, b = ring, np.roll(ring, -1, axis=0)
            xs = (a[:, 0] + t * (b[:, 0] - a[:, 0])).ravel()
            ys = (a[:, 1] + t * (b[:, 1] - a[:, 1])).ravel()
            ids, valid = viewport.pixel_ids_of(xs, ys)
            assert np.isin(ids[valid], marked).all()


@given(scenes())
def test_structure(scene):
    geometries, viewport = scene
    table = build_fragment_table(geometries, viewport)
    width = viewport.width
    for gid in range(len(geometries)):
        interior = _pixels_of(table, "interior", gid)
        boundary = _pixels_of(table, "boundary", gid)
        assert not np.isin(interior, boundary).any()
        assert np.isin(_pixels_of(table, "covered_boundary", gid),
                       boundary).all()
        for kind, pixels in (("full", interior), ("partial", boundary)):
            offsets, starts, lengths = _runs(table, kind)
            starts = starts[offsets[gid]:offsets[gid + 1]]
            lengths = lengths[offsets[gid]:offsets[gid + 1]]
            np.testing.assert_array_equal(_expand(starts, lengths), pixels)
            assert (lengths > 0).all()
            stops = starts + lengths
            assert (starts // width == (stops - 1) // width).all(), \
                "run spans a row wrap"
            gaps = starts[1:] - stops[:-1]
            assert (gaps >= 0).all(), "runs out of order or overlapping"
            assert (starts[1:][gaps == 0] % width == 0).all(), \
                "runs touch inside a row"


# -- empty inputs --------------------------------------------------------------

VP = Viewport(BBox(0, 0, 20, 10), 20, 10)


def _assert_empty(table, num_polygons: int) -> None:
    assert table.num_polygons == num_polygons
    for name in PAIR_ARRAYS + ("covered_pixels", "covered_polys"):
        want = np.int32 if name.endswith("_polys") else np.int64
        arr = getattr(table, name)
        assert len(arr) == 0 and arr.dtype == want, name
    for kind in RUN_KINDS:
        offsets, starts, lengths = _runs(table, kind)
        np.testing.assert_array_equal(offsets,
                                      np.zeros(num_polygons + 1, np.int64))
        assert len(starts) == len(lengths) == 0


def test_no_geometries():
    _assert_empty(build_fragment_table([], VP), 0)


def test_nothing_on_screen():
    offscreen = [Polygon([[40, 40], [50, 40], [45, 50]]),
                 Polygon([[-30, 2], [-20, 2], [-20, 8], [-30, 8]])]
    _assert_empty(build_fragment_table(offscreen, VP), 2)


def test_boundary_only_polygons():
    """Strips that pass between the sample rows: no coverage span
    survives, yet the pixels they cross are PARTIAL."""
    strips = [Polygon([[2.5, 3.1], [14.5, 3.1], [14.5, 3.4], [2.5, 3.4]]),
              Polygon([[4.6, 1.5], [4.9, 1.5], [4.9, 8.5], [4.6, 8.5]])]
    table = build_fragment_table(strips, VP)
    assert table.num_interior_fragments == 0
    assert len(table.covered_pixels) == 0
    assert table.intervals.num_full_runs == 0
    np.testing.assert_array_equal(table.boundary_pixels[
        table.boundary_polys == 0], 3 * 20 + np.arange(2, 15))
    np.testing.assert_array_equal(table.boundary_pixels[
        table.boundary_polys == 1], np.arange(1, 9) * 20 + 4)
    assert table.intervals.num_partial_runs == 1 + 8
