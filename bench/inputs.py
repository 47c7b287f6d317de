"""Seeded inputs: everything a workload feeds the program comes from here.

One ``--seed`` fixes the trips and every gesture script (the city and
its region hierarchy are the same for every seed, see ``CITY_SEED``).  The program under test only ever sees the
generated tables, regions and queries — never the seed or the workload
name.
"""

from __future__ import annotations

import time
import zlib
from dataclasses import dataclass

import numpy as np

from repro.data import CityModel, generate_taxi_trips, voronoi_regions

DAY = 86_400

#: Region hierarchy of the load model (ISSUE 11), coarse to fine.
REGION_LEVELS = {"boroughs": 5, "neighborhoods": 71, "districts": 297}

#: The city and its region hierarchy are the same for every ``--seed``:
#: ten seeds of Voronoi geometry move fragment, mount and block costs by
#: up to 2x, which would drown every regression bound in input noise.
#: The seed resamples the trips and draws every script parameter.
CITY_SEED = 7

#: The four aggregates the scripts cycle through.
AGGREGATES = (("count", None), ("avg", "fare"), ("sum", "tip"),
              ("max", "fare"))


def rng_for(seed: int, *salt) -> np.random.Generator:
    """An independent stream per (seed, purpose): string salts hash to
    a fixed word so streams never depend on iteration order."""
    words = [int(seed)]
    for item in salt:
        words.append(zlib.crc32(item.encode()) if isinstance(item, str)
                     else int(item))
    return np.random.default_rng(words)


@dataclass
class Inputs:
    """The generated world one workload runs against."""

    table: object
    regions: dict
    #: Day-aligned epoch of the first trip and the number of whole days
    #: the trips span — what brushes are drawn from.
    origin: int
    days: int
    #: Seconds the bench spent synthesizing this (its own cost, not the
    #: program's; reported in the result stamp, not in ``setup_s``).
    seconds: float


def make_inputs(seed: int, points: int, levels=("neighborhoods",
                                                "districts")) -> Inputs:
    t0 = time.perf_counter()
    city = CityModel(seed=CITY_SEED)
    table = generate_taxi_trips(city, points, seed=seed + 1)
    regions = {name: voronoi_regions(city, REGION_LEVELS[name], name=name)
               for name in levels}
    tvals = table.column("t").values
    origin = int(tvals.min()) // DAY * DAY
    days = max(1, (int(tvals.max()) - origin) // DAY)
    return Inputs(table=table, regions=regions, origin=origin,
                  days=days, seconds=time.perf_counter() - t0)
