"""Shared benchmark workloads.

Everything is session-scoped and deterministic: one synthetic city, the
region hierarchy at four resolutions, and taxi tables at three sizes
(subsets of one generation so distributions match across scales).
Engines are pre-warmed where a benchmark measures the *interactive*
path (polygon raster cached), mirroring how Urbane actually re-queries.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import SpatialAggregationEngine
from repro.data import (
    CityModel,
    generate_complaints,
    generate_crimes,
    generate_taxi_trips,
    voronoi_regions,
)

POINT_SCALES = {"50k": 50_000, "200k": 200_000, "800k": 800_000}
REGION_LEVELS = {"boroughs": 5, "neighborhoods": 71, "districts": 297,
                 "tracts": 1000}


@pytest.fixture(scope="session")
def bench_city():
    return CityModel(seed=7)


@pytest.fixture(scope="session")
def bench_regions(bench_city):
    """Region sets at every resolution level, keyed by level name."""
    return {name: voronoi_regions(bench_city, count, name=name)
            for name, count in REGION_LEVELS.items()}


@pytest.fixture(scope="session")
def bench_taxi(bench_city):
    """Taxi tables at several scales (nested subsets of one draw)."""
    full = generate_taxi_trips(bench_city, max(POINT_SCALES.values()),
                               seed=8)
    return {name: full.take(np.arange(n)).rename(f"taxi-{name}")
            for name, n in POINT_SCALES.items()}


@pytest.fixture(scope="session")
def bench_datasets(bench_city, bench_taxi):
    """The three-data-set mix used by the view-level experiments."""
    return {
        "taxi": bench_taxi["200k"],
        "complaints311": generate_complaints(bench_city, 60_000, seed=9),
        "crime": generate_crimes(bench_city, 40_000, seed=10),
    }


@pytest.fixture(scope="session")
def warm_engine(bench_regions, bench_taxi):
    """Engine with its unified cache pre-warmed (polygon rasters and
    grid indexes resident), so benchmarks measure per-query work
    (the interactive scenario)."""
    engine = SpatialAggregationEngine(default_resolution=512)
    from repro.core import SpatialAggregation

    query = SpatialAggregation.count()
    for regions in bench_regions.values():
        engine.execute(bench_taxi["50k"], regions, query, method="bounded")
        engine.execute(bench_taxi["50k"], regions, query, method="accurate")
    for table in bench_taxi.values():
        engine.execute(table, bench_regions["neighborhoods"], query,
                       method="grid")
    assert engine.cache_stats()["entries"] > 0
    return engine
