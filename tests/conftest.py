"""Shared fixtures: a small deterministic workload every suite reuses.

Fixtures are session-scoped where construction is expensive (the demo
workload) and function-scoped where tests mutate nothing anyway but
isolation is cheap.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import settings

from repro.core import RegionSet, SpatialAggregationEngine
from repro.data import CityModel, load_demo_workload, voronoi_regions
from repro.geometry import Polygon, regular_polygon
from repro.table import PointTable, timestamp_column

# Tier-1 runs the derandomized default profile (same examples every
# run; per-test ``max_examples`` stay as written).  CI additionally runs
# the raster suites under ``--hypothesis-profile ci`` for depth.
settings.register_profile("default", derandomize=True)
settings.register_profile("ci", max_examples=400, deadline=None)


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(12345)


@pytest.fixture(scope="session")
def simple_regions() -> RegionSet:
    """Three overlapping-free regions of varied shape in [0, 100]^2."""
    concave = Polygon([
        [5, 55], [45, 55], [45, 95], [25, 95], [25, 75], [15, 75],
        [15, 95], [5, 95]])
    holed = Polygon(
        [[55, 55], [95, 55], [95, 95], [55, 95]],
        holes=[[[70, 70], [80, 70], [80, 80], [70, 80]]])
    return RegionSet(
        "simple",
        [regular_polygon(25, 25, 18, 9), concave, holed],
        ["disc", "concave", "holed"],
    )


@pytest.fixture(scope="session")
def small_table() -> PointTable:
    """50k points over [0, 100]^2 with numeric/categorical/time columns."""
    gen = np.random.default_rng(99)
    n = 50_000
    x = gen.uniform(0, 100, n)
    y = gen.uniform(0, 100, n)
    fare = gen.exponential(10.0, n)
    t = gen.integers(1_000_000, 2_000_000, n)
    kind = gen.choice(["a", "b", "c"], n)
    return PointTable.from_arrays(
        x, y, name="small",
        fare=fare, t=timestamp_column("t", t), kind=kind)


@pytest.fixture(scope="session")
def city() -> CityModel:
    return CityModel(seed=7)


@pytest.fixture(scope="session")
def city_regions(city) -> RegionSet:
    return voronoi_regions(city, 40, name="test-neighborhoods")


@pytest.fixture(scope="session")
def demo():
    """A scaled-down demo workload shared across integration tests."""
    return load_demo_workload(
        taxi_rows=60_000, complaint_rows=20_000, crime_rows=15_000,
        months=2, region_levels={"boroughs": 5, "neighborhoods": 40})


@pytest.fixture()
def engine() -> SpatialAggregationEngine:
    return SpatialAggregationEngine(default_resolution=256)
