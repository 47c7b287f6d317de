"""Tests for RegionSet."""

import pytest

from repro.core import RegionSet
from repro.errors import GeometryError
from repro.geometry import Polygon, regular_polygon


def _set():
    return RegionSet("demo",
                     [regular_polygon(10, 10, 5, 6),
                      regular_polygon(30, 30, 5, 6)],
                     ["west", "east"])


class TestConstruction:
    def test_names_default(self):
        rs = RegionSet("r", [regular_polygon(0, 0, 1, 4)])
        assert rs.region_names == ("r-0",)

    def test_empty_rejected(self):
        with pytest.raises(GeometryError):
            RegionSet("r", [])

    def test_name_count_mismatch(self):
        with pytest.raises(GeometryError):
            RegionSet("r", [regular_polygon(0, 0, 1, 4)], ["a", "b"])

    def test_duplicate_names_rejected(self):
        with pytest.raises(GeometryError):
            RegionSet("r",
                      [regular_polygon(0, 0, 1, 4),
                       regular_polygon(5, 5, 1, 4)],
                      ["a", "a"])

    def test_raw_vertex_input_coerced(self):
        rs = RegionSet("r", [[[0, 0], [1, 0], [1, 1], [0, 1]]])
        assert isinstance(rs[0], Polygon)


class TestAccessors:
    def test_id_of(self):
        rs = _set()
        assert rs.id_of("east") == 1
        with pytest.raises(GeometryError):
            rs.id_of("north")

    def test_iteration_and_len(self):
        rs = _set()
        assert len(rs) == 2
        assert len(list(rs)) == 2

    def test_bbox_spans_all(self):
        rs = _set()
        assert rs.bbox.contains_bbox(rs[0].bbox)
        assert rs.bbox.contains_bbox(rs[1].bbox)

    def test_vector_properties(self):
        rs = _set()
        assert rs.areas().shape == (2,)
        assert rs.perimeters().shape == (2,)
        assert rs.centroids().shape == (2, 2)
        assert rs.total_vertices == 12

    def test_centroids_near_centers(self):
        rs = _set()
        assert rs.centroids()[0] == pytest.approx([10, 10], abs=1e-9)

    def test_repr(self):
        assert "demo" in repr(_set())
