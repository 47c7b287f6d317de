"""Tests for fragment-table assembly."""

import hashlib

import numpy as np
import pytest

from repro.core import (
    SpatialAggregation,
    accurate_raster_join,
    bounded_raster_join,
)
from repro.core.cache import estimate_nbytes
from repro.data import CityModel, voronoi_regions
from repro.geometry import BBox, MultiPolygon, Polygon, regular_polygon
from repro.raster import Viewport, build_fragment_table

VP = Viewport(BBox(0, 0, 100, 100), 128, 128)


def _geoms():
    return [
        regular_polygon(30, 30, 20, 8),
        regular_polygon(70, 70, 18, 5),
        Polygon([[10, 60], [40, 60], [40, 95], [10, 95]]),
    ]


class TestFragmentTable:
    def test_ids_aligned(self):
        table = build_fragment_table(_geoms(), VP)
        assert table.num_polygons == 3
        assert len(table.interior_pixels) == len(table.interior_polys)
        assert len(table.boundary_pixels) == len(table.boundary_polys)
        assert (len(table.covered_boundary_pixels)
                == len(table.covered_boundary_polys))

    def test_poly_ids_in_range(self):
        table = build_fragment_table(_geoms(), VP)
        for polys in (table.interior_polys, table.boundary_polys,
                      table.covered_boundary_polys):
            if len(polys):
                assert polys.min() >= 0
                assert polys.max() < 3

    def test_covered_boundary_subset_of_boundary(self):
        table = build_fragment_table(_geoms(), VP)
        for gid in range(3):
            cb = set(table.covered_boundary_pixels[
                table.covered_boundary_polys == gid].tolist())
            b = set(table.boundary_pixels[
                table.boundary_polys == gid].tolist())
            assert cb <= b

    def test_interior_disjoint_from_boundary_per_polygon(self):
        table = build_fragment_table(_geoms(), VP)
        for gid in range(3):
            inter = set(table.interior_pixels[
                table.interior_polys == gid].tolist())
            bound = set(table.boundary_pixels[
                table.boundary_polys == gid].tolist())
            assert not inter & bound

    def test_interior_plus_covered_boundary_is_coverage(self):
        from repro.raster import coverage_fragments

        geoms = _geoms()
        table = build_fragment_table(geoms, VP)
        for gid, geom in enumerate(geoms):
            inter = set(table.interior_pixels[
                table.interior_polys == gid].tolist())
            cb = set(table.covered_boundary_pixels[
                table.covered_boundary_polys == gid].tolist())
            assert inter | cb == set(coverage_fragments(geom, VP).tolist())

    def test_empty_geometry_list(self):
        table = build_fragment_table([], VP)
        assert table.num_polygons == 0
        assert table.num_interior_fragments == 0

    def test_offscreen_geometry_contributes_nothing(self):
        table = build_fragment_table(
            [regular_polygon(1000, 1000, 5, 4)], VP)
        assert table.num_interior_fragments == 0
        assert table.num_boundary_fragments == 0

    def test_fragment_counts_property(self):
        table = build_fragment_table(_geoms(), VP)
        assert table.num_interior_fragments == len(table.interior_pixels)
        assert table.num_boundary_fragments == len(table.boundary_pixels)

    def test_overlapping_polygons_each_get_fragments(self):
        geoms = [regular_polygon(50, 50, 20, 8),
                 regular_polygon(55, 50, 20, 8)]  # overlap
        table = build_fragment_table(geoms, VP)
        shared_interior = (
            set(table.interior_pixels[table.interior_polys == 0].tolist())
            & set(table.interior_pixels[table.interior_polys == 1].tolist()))
        assert shared_interior  # overlap pixels appear for both ids



# -- pinned parity with the per-polygon builder --------------------------------

PAIR_ARRAYS = ("interior_pixels", "interior_polys", "boundary_pixels",
               "boundary_polys", "covered_boundary_pixels",
               "covered_boundary_polys")
RUN_ARRAYS = ("full_offsets", "full_starts", "full_lengths",
              "partial_offsets", "partial_starts", "partial_lengths")


def _table_digest(table) -> str:
    """SHA-256 over name, dtype, shape and bytes of the six pair arrays
    and the six interval arrays."""
    digest = hashlib.sha256()
    for owner, names in ((table, PAIR_ARRAYS), (table.intervals, RUN_ARRAYS)):
        for name in names:
            arr = np.ascontiguousarray(getattr(owner, name))
            digest.update(f"{name}:{arr.dtype.str}:{arr.shape}".encode())
            digest.update(arr.tobytes())
    return digest.hexdigest()


def _holed_multipolygon_scene():
    a = Polygon([[4, 4], [60, 6], [58, 50], [30, 30], [6, 52]],
                holes=[[[12, 10], [24, 10], [24, 22], [12, 22]],
                       [[40, 12], [50, 14], [46, 26]]])
    b = Polygon([[70, 60], [96, 60], [96, 90], [70, 90]],
                holes=[[[75.5, 65.5], [90.5, 65.5], [90.5, 84.5],
                        [75.5, 84.5]]])
    island = Polygon([[78, 70], [88, 70], [83, 80]])
    return [MultiPolygon((a, b, island)),
            Polygon([[-20, 40], [30, 35], [35, 110], [-10, 120]]),
            Polygon([[50, 25], [75, 25], [75, 50], [50, 50]])]


class TestPinnedParity:
    """Digests recorded at 13878bd from the per-polygon scanline builder
    (``setdiff1d`` / ``intersect1d`` on pixel arrays, runs re-encoded
    from pixels).  The tables are integer outputs of elementwise IEEE
    ``+ - * /``, ``ceil`` and ``floor``, so they are stable across NumPy
    versions; any rewrite of the builder must reproduce them."""

    @pytest.mark.parametrize("resolution, fragments, runs, digest", [
        (256, (36996, 18950), 4228,
         "07f5fdae6b2e2bd8c78764c01339808ee7ef1f8508b50f87308012c3f3c51f4e"),
        (512, (166159, 38081), 9041,
         "e1413030a990da3c889a4995a39e5929e79be68e2655bc123c288e7fb0ff981e"),
    ])
    def test_bench_districts(self, resolution, fragments, runs, digest):
        self._check_bench("districts", resolution, fragments, runs, digest)

    @pytest.mark.parametrize("level, resolution, fragments, runs, digest", [
        # Recorded at 6b8acd2 (grid traversal over every pixel key).
        ("districts", 1024, (701591, 76342), 18669,
         "e363207ea914923ea8aa8db41491f66e164dd3491bbb03f2a5b15141937f1abb"),
        ("neighborhoods", 512, (175692, 18449), 4481,
         "c2453b27d488452c37037e7ecac8d84211fce747e444f762d1009ffbab06a98c"),
        ("neighborhoods", 1024, (720993, 36957), 9103,
         "54dc80bf80938046fa7b0ef7a5ef151c729507a07c6994b66dde8c4c90301077"),
    ])
    def test_bench_levels(self, level, resolution, fragments, runs, digest):
        self._check_bench(level, resolution, fragments, runs, digest)

    def test_bench_districts_zoomed_off_centre(self):
        """4x zoom, panned off-centre: most ring edges leave the window,
        so the pass is pinned where it clips.  Recorded at 6b8acd2."""
        self._check_bench(
            "districts", 512, (227679, 12679), 3572,
            "33312249726b9ce02bc6cd525792125ae0ba6b8e9e338cd8e534bce1ac2430b1",
            zoom=lambda vp: vp.zoom(0.25).pan(160, -96))

    @staticmethod
    def _check_bench(level, resolution, fragments, runs, digest,
                     zoom=lambda vp: vp):
        count = {"neighborhoods": 71, "districts": 297}[level]
        regions = voronoi_regions(CityModel(7), count, name=level)
        table = build_fragment_table(
            list(regions.geometries),
            zoom(Viewport.fit(regions.bbox, resolution)))
        assert (table.num_interior_fragments,
                table.num_boundary_fragments) == fragments
        assert table.intervals.num_full_runs == runs
        assert _table_digest(table) == digest

    def test_holed_multipolygon_scene(self):
        table = build_fragment_table(
            _holed_multipolygon_scene(),
            Viewport(BBox(0, 0, 100, 100), 200, 160))
        assert (table.num_interior_fragments,
                table.num_boundary_fragments) == (15101, 1402)
        assert table.intervals.num_full_runs == 384
        assert _table_digest(table) == (
            "6d8dee9ad9ad5170d3614cbd6d8df1442593804fc35c9c99515ac82c7e420c46")


class TestTableMemory:
    def test_no_per_pixel_array_is_stored(self):
        """A table keeps runs and boundary-sized arrays only: the
        interior and covered pairs are expansions on access, never
        cached in ``__dict__``."""
        table = build_fragment_table(_geoms(), VP)
        assert len(table.interior_pixels) == table.num_interior_fragments
        assert len(table.covered_pixels) > table.num_interior_fragments
        for owner in (table, table.intervals):
            for name, value in vars(owner).items():
                if isinstance(value, np.ndarray):
                    assert len(value) < table.num_interior_fragments, name

    def test_joins_allocate_nothing_on_a_cached_table(self, simple_regions,
                                                      small_table):
        """The cache sizes an entry once, at ``put``: a query must not
        grow the table afterwards."""
        viewport = Viewport.fit(simple_regions.bbox, 256)
        table = build_fragment_table(list(simple_regions.geometries),
                                     viewport)
        before = estimate_nbytes(table)
        query = SpatialAggregation.sum_of("fare")
        bounded_raster_join(small_table, simple_regions, query, viewport,
                            fragments=table)
        accurate_raster_join(small_table, simple_regions, query, viewport,
                             fragments=table)
        assert estimate_nbytes(table) == before
