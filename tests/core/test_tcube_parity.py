"""Pinned cube planes: any rewrite of the cube build must reproduce
these bits.

Each digest covers a cube's ``origin``, ``active_pixels`` and every
``prefix[kind]`` plane (name, dtype, shape and bytes).  The planes are
element-sequential float64 folds of the same points in table order
followed by a cumsum along time, so they are stable for a fixed NumPy
build.
"""

from __future__ import annotations

import hashlib
import tracemalloc

import numpy as np
import pytest

from repro.core import build_temporal_canvas_cube
from repro.data import CityModel, generate_taxi_trips, voronoi_regions
from repro.data.temporal import DEFAULT_EPOCH
from repro.raster import Viewport
from repro.table import F, numeric_column

DAY = 86_400
HOUR = 3_600


@pytest.fixture(scope="module")
def taxi():
    city = CityModel(7)
    table = generate_taxi_trips(city, 20_000, start=DEFAULT_EPOCH,
                                end=DEFAULT_EPOCH + 4 * DAY, seed=11)
    # A signed column (tip minus a tenth of the fare), so a cube over it
    # stores the separate |v| mass plane.
    margin = table.values("tip") - 0.1 * table.values("fare")
    return table.with_column(numeric_column("margin", margin))


@pytest.fixture(scope="module")
def viewport():
    regions = voronoi_regions(CityModel(7), 71, name="neighborhoods")
    return Viewport.fit(regions.bbox, 128)


def cube_digest(cube) -> str:
    digest = hashlib.sha256()
    arrays = [("origin", np.array([cube.origin], dtype=np.int64)),
              ("active_pixels", cube.active_pixels)]
    arrays += [(f"prefix[{kind}]", cube.prefix[kind])
               for kind in sorted(cube.prefix)]
    for name, arr in arrays:
        arr = np.ascontiguousarray(arr)
        digest.update(f"{name}:{arr.dtype.str}:{arr.shape}".encode())
        digest.update(arr.tobytes())
    return digest.hexdigest()


class TestPinnedCubes:
    def test_count_daily(self, taxi, viewport):
        cube = build_temporal_canvas_cube(taxi, viewport, "t", DAY)
        assert sorted(cube.prefix) == ["count"]
        assert cube_digest(cube) == COUNT_DAILY

    def test_tip_hourly_filtered(self, taxi, viewport):
        cube = build_temporal_canvas_cube(
            taxi, viewport, "t", HOUR, value_column="tip",
            residual_filters=(F("fare") > 6.5,))
        assert sorted(cube.prefix) == ["count", "sum"]
        assert cube_digest(cube) == TIP_HOURLY_FILTERED

    def test_signed_values_mass_plane(self, taxi, viewport):
        cube = build_temporal_canvas_cube(taxi, viewport, "t", HOUR,
                                          value_column="margin")
        assert sorted(cube.prefix) == ["count", "mass", "sum"]
        assert cube_digest(cube) == SIGNED_HOURLY


class TestBuildPeak:
    """The build folds into the prefix planes and sums them in place,
    so it holds about one cube, not a delta array beside it."""

    @pytest.mark.parametrize("value_column", [None, "tip"])
    def test_peak_below_one_and_a_half_cubes(self, taxi, viewport,
                                             value_column):
        tracemalloc.start()
        try:
            cube = build_temporal_canvas_cube(
                taxi, viewport, "t", HOUR, value_column=value_column)
            __, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * cube.memory_bytes()


# Recorded from the per-cube bincount build (numpy 2.4).
COUNT_DAILY = (
    "cdee2cc02b81235eb56ed388c2040e962d6c159f58ce48ab246ed7425093a581")
TIP_HOURLY_FILTERED = (
    "4b09abf2487575097d9485d34319d97e00d0ff6e6a4166d6eb2325fc9356b33c")
SIGNED_HOURLY = (
    "968854312c16ffa8f7effc84f28f664c981a8d8731af096a168a72a6beefc33a")
