"""Region sets — the ``R(id, geometry)`` side of the query.

A :class:`RegionSet` is an ordered collection of named polygonal regions
(e.g. "the neighborhoods of NYC").  Urbane registers several region sets
per city — one per spatial resolution — and queries group by whichever
set the user selects.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from ..errors import GeometryError
from ..geometry import BBox
from ..geometry.geojson import feature_collection, parse_feature_collection
from ..geometry.polygon import Geometry, as_geometry


class RegionSet:
    """An immutable, ordered set of named regions."""

    def __init__(self, name: str, geometries, region_names=None):
        self.name = name
        geoms = [as_geometry(g) for g in geometries]
        if not geoms:
            raise GeometryError(f"region set {name!r} has no regions")
        self._geometries: tuple[Geometry, ...] = tuple(geoms)
        if region_names is None:
            region_names = [f"{name}-{i}" for i in range(len(geoms))]
        region_names = [str(n) for n in region_names]
        if len(region_names) != len(geoms):
            raise GeometryError(
                f"{len(region_names)} names for {len(geoms)} regions")
        if len(set(region_names)) != len(region_names):
            raise GeometryError(f"duplicate region names in set {name!r}")
        self.region_names: tuple[str, ...] = tuple(region_names)
        self._name_to_id = {n: i for i, n in enumerate(region_names)}

    def __len__(self) -> int:
        return len(self._geometries)

    def __iter__(self):
        return iter(self._geometries)

    def __getitem__(self, region_id: int) -> Geometry:
        return self._geometries[region_id]

    @property
    def geometries(self) -> tuple[Geometry, ...]:
        return self._geometries

    def id_of(self, region_name: str) -> int:
        try:
            return self._name_to_id[region_name]
        except KeyError:
            raise GeometryError(
                f"region set {self.name!r} has no region {region_name!r}"
            ) from None

    @cached_property
    def bbox(self) -> BBox:
        """Union of the region bboxes, computed once (the set is
        immutable; every ``plan_viewport`` reads this)."""
        box = self._geometries[0].bbox
        for geom in self._geometries[1:]:
            box = box.union(geom.bbox)
        return box

    @cached_property
    def total_vertices(self) -> int:
        """Vertex count over every region, computed once (the planner's
        cost inputs read it on every query)."""
        return sum(g.num_vertices for g in self._geometries)

    def areas(self) -> np.ndarray:
        return np.array([g.area for g in self._geometries])

    def perimeters(self) -> np.ndarray:
        return np.array([g.perimeter for g in self._geometries])

    def centroids(self) -> np.ndarray:
        return np.array([g.centroid for g in self._geometries])

    def to_geojson(self) -> dict:
        """FeatureCollection with region names as properties."""
        props = [{"name": n, "id": i} for i, n in enumerate(self.region_names)]
        return feature_collection(list(self._geometries), props)

    @classmethod
    def from_geojson(cls, name: str, doc: dict) -> "RegionSet":
        geoms, props = parse_feature_collection(doc)
        names = [p.get("name", f"{name}-{i}") for i, p in enumerate(props)]
        return cls(name, geoms, names)

    def __repr__(self) -> str:
        return (f"RegionSet({self.name!r}, regions={len(self)}, "
                f"vertices={self.total_vertices})")
