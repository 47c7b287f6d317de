"""Tests for GeoJSON encode/decode round trips."""

import pytest

from repro.errors import GeometryError
from repro.geometry import (
    MultiPolygon,
    Polygon,
    feature_collection,
    geometry_from_geojson,
    geometry_to_geojson,
    parse_feature_collection,
    read_geojson,
    write_geojson,
)

SQUARE = [[0, 0], [10, 0], [10, 10], [0, 10]]
HOLE = [[3, 3], [7, 3], [7, 7], [3, 7]]


class TestGeometryRoundTrip:
    def test_polygon(self):
        poly = Polygon(SQUARE)
        doc = geometry_to_geojson(poly)
        assert doc["type"] == "Polygon"
        # GeoJSON rings are closed.
        assert doc["coordinates"][0][0] == doc["coordinates"][0][-1]
        back = geometry_from_geojson(doc)
        assert back.area == pytest.approx(poly.area)

    def test_polygon_with_hole(self):
        poly = Polygon(SQUARE, holes=[HOLE])
        back = geometry_from_geojson(geometry_to_geojson(poly))
        assert isinstance(back, Polygon)
        assert len(back.holes) == 1
        assert back.area == pytest.approx(84.0)

    def test_multipolygon(self):
        mp = MultiPolygon((
            Polygon(SQUARE),
            Polygon([[20, 0], [30, 0], [30, 10], [20, 10]]),
        ))
        doc = geometry_to_geojson(mp)
        assert doc["type"] == "MultiPolygon"
        back = geometry_from_geojson(doc)
        assert isinstance(back, MultiPolygon)
        assert back.area == pytest.approx(200.0)

    def test_unknown_type_rejected(self):
        with pytest.raises(GeometryError):
            geometry_from_geojson({"type": "Point", "coordinates": [0, 0]})

    def test_empty_polygon_rejected(self):
        with pytest.raises(GeometryError):
            geometry_from_geojson({"type": "Polygon", "coordinates": []})


class TestFeatureCollection:
    def test_round_trip_with_properties(self):
        geoms = [Polygon(SQUARE), Polygon([[20, 0], [25, 0], [25, 5]])]
        props = [{"name": "a"}, {"name": "b"}]
        doc = feature_collection(geoms, props)
        back_geoms, back_props = parse_feature_collection(doc)
        assert len(back_geoms) == 2
        assert back_props[0]["name"] == "a"

    def test_property_count_mismatch(self):
        with pytest.raises(GeometryError):
            feature_collection([Polygon(SQUARE)], [{}, {}])

    def test_wrong_root_type(self):
        with pytest.raises(GeometryError):
            parse_feature_collection({"type": "Feature"})

    def test_file_round_trip(self, tmp_path):
        geoms = [Polygon(SQUARE, holes=[HOLE])]
        path = tmp_path / "regions.geojson"
        write_geojson(path, geoms, [{"name": "sq"}])
        back, props = read_geojson(path)
        assert back[0].area == pytest.approx(84.0)
        assert props[0]["name"] == "sq"


class TestRegionSetGeoJSON:
    def test_region_set_round_trip(self, simple_regions):
        doc = simple_regions.to_geojson()
        from repro.core import RegionSet

        back = RegionSet.from_geojson("copy", doc)
        assert len(back) == len(simple_regions)
        assert back.region_names == simple_regions.region_names
        for a, b in zip(back.geometries, simple_regions.geometries):
            assert a.area == pytest.approx(b.area)
