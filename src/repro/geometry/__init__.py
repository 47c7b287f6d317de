"""Computational-geometry substrate.

Everything the spatial-aggregation engine needs is implemented here from
scratch: points and boxes, polygons with holes, exact predicates,
clipping, triangulation, projections, GeoJSON IO and bounded Voronoi
diagrams (used to synthesize region hierarchies).
"""

from .bbox import BBox
from .clip import clip_polygon_convex, clip_ring_to_bbox
from .geojson import (
    feature_collection,
    geometry_from_geojson,
    geometry_to_geojson,
    parse_feature_collection,
    read_geojson,
    write_geojson,
)
from .point import (
    as_points,
    dedupe_consecutive,
    polygon_centroid,
    polygon_perimeter,
    polygon_signed_area,
)
from .polygon import (
    Geometry,
    MultiPolygon,
    Polygon,
    as_geometry,
    box_polygon,
    normalize_ring,
    regular_polygon,
)
from .predicates import orient2d, point_in_ring, points_in_ring
from .projection import (
    EARTH_RADIUS_M,
    LocalProjection,
    haversine_m,
    lonlat_to_mercator,
    mercator_to_lonlat,
)
from .triangulate import triangle_areas, triangulate_ring, triangulate_ring_vertices
from .voronoi import bounded_voronoi_cells, clip_cells_to_boundary

__all__ = [
    "BBox",
    "EARTH_RADIUS_M",
    "Geometry",
    "LocalProjection",
    "MultiPolygon",
    "Polygon",
    "as_geometry",
    "as_points",
    "bounded_voronoi_cells",
    "box_polygon",
    "clip_cells_to_boundary",
    "clip_polygon_convex",
    "clip_ring_to_bbox",
    "dedupe_consecutive",
    "feature_collection",
    "geometry_from_geojson",
    "geometry_to_geojson",
    "haversine_m",
    "lonlat_to_mercator",
    "mercator_to_lonlat",
    "normalize_ring",
    "orient2d",
    "parse_feature_collection",
    "point_in_ring",
    "points_in_ring",
    "polygon_centroid",
    "polygon_perimeter",
    "polygon_signed_area",
    "read_geojson",
    "regular_polygon",
    "triangle_areas",
    "triangulate_ring",
    "triangulate_ring_vertices",
    "write_geojson",
]
