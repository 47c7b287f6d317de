"""Synthetic urban data substrate.

Offline stand-ins for the open NYC data sets the demo explores: a
seeded :class:`CityModel` (boundary + hotspots), Voronoi region
hierarchies at several resolutions, and generators for taxi trips, 311
complaints and crime incidents with realistic attribute and temporal
distributions.  :func:`load_demo_workload` assembles the full package.
"""

from .city import DEFAULT_EXTENT_M, CityModel, Hotspot
from .complaints import AGENCIES, COMPLAINT_TYPES, generate_complaints
from .crime import OFFENSES, generate_crimes
from .demo import DemoWorkload, load_demo_workload
from .regions import (
    RESOLUTION_LEVELS,
    grid_regions,
    region_hierarchy,
    voronoi_regions,
)
from .taxi import PAYMENT_TYPES, VENDORS, generate_taxi_trips
from .temporal import (
    DEFAULT_EPOCH,
    SECONDS_PER_DAY,
    SECONDS_PER_HOUR,
    SECONDS_PER_WEEK,
    TemporalPattern,
    daytime_pattern,
    month_window,
    nighttime_pattern,
    taxi_pattern,
)

__all__ = [
    "AGENCIES",
    "COMPLAINT_TYPES",
    "CityModel",
    "DEFAULT_EPOCH",
    "DEFAULT_EXTENT_M",
    "DemoWorkload",
    "Hotspot",
    "OFFENSES",
    "PAYMENT_TYPES",
    "RESOLUTION_LEVELS",
    "SECONDS_PER_DAY",
    "SECONDS_PER_HOUR",
    "SECONDS_PER_WEEK",
    "TemporalPattern",
    "VENDORS",
    "daytime_pattern",
    "generate_complaints",
    "generate_crimes",
    "generate_taxi_trips",
    "grid_regions",
    "load_demo_workload",
    "month_window",
    "nighttime_pattern",
    "region_hierarchy",
    "taxi_pattern",
    "voronoi_regions",
]
