"""repro — reproduction of "Interactive Visual Exploration of
Spatio-Temporal Urban Data Sets using Urbane" (SIGMOD'18 demo).

The package implements the demo's full stack from scratch:

* ``repro.core`` — **Raster Join**, the spatial-aggregation-by-drawing
  technique (bounded + accurate variants, tiling, planner/engine);
* ``repro.raster`` — the software rendering pipeline the joins run on;
* ``repro.geometry`` / ``repro.index`` / ``repro.table`` — the
  geometric, indexing and columnar substrates;
* ``repro.baselines`` — the exact grid index join, the naive scan and
  the pre-aggregation cube the paper compares against;
* ``repro.data`` — synthetic urban data (city model, region
  hierarchies, taxi / 311 / crime generators);
* ``repro.urbane`` — the headless visual-analytics framework (map,
  exploration, timeline views; interactive sessions).

Quickstart::

    from repro.data import load_demo_workload
    from repro.core import SpatialAggregationEngine, SpatialAggregation

    w = load_demo_workload()
    engine = SpatialAggregationEngine()
    result = engine.execute(w.datasets["taxi"],
                            w.regions["neighborhoods"],
                            SpatialAggregation.count())
    print(result.top_k(5))
"""

__version__ = "1.0.0"

from . import (
    baselines,
    core,
    data,
    geometry,
    index,
    raster,
    table,
    urbane,
)
from .errors import (
    CubeError,
    DataGenerationError,
    ExecutionError,
    GeometryError,
    QueryError,
    ReproError,
    SchemaError,
)

__all__ = [
    "CubeError",
    "DataGenerationError",
    "ExecutionError",
    "GeometryError",
    "QueryError",
    "ReproError",
    "SchemaError",
    "__version__",
    "baselines",
    "core",
    "data",
    "geometry",
    "index",
    "raster",
    "table",
    "urbane",
]
