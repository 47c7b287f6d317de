"""Raster Join — the paper's primary contribution.

The spatial aggregation query (``SELECT AGG(a_i) FROM P, R WHERE P.loc
INSIDE R.geometry [AND filter]* GROUP BY R.id``) evaluated by drawing:

* :func:`bounded_raster_join` — pure raster evaluation with geometric
  and numeric error guarantees;
* :func:`accurate_raster_join` — hybrid raster + exact boundary tests;
* :func:`tiled_bounded_raster_join` — virtual canvases beyond the
  texture cap;
* :class:`SpatialAggregationEngine` — the facade over the backend
  registry, the cost-based planner, and the unified execution cache.
"""

from .accurate import accurate_raster_join
from .aggregates import (
    AVG,
    BOUNDABLE_AGGREGATES,
    COUNT,
    MAX,
    MIN,
    SUM,
    SUPPORTED_AGGREGATES,
    PartialAggregate,
)
from .bounded import bounded_raster_join
from .bounds import (
    epsilon_for_viewport,
    relative_bound_width,
    resolution_for_epsilon,
)
from .backends import (
    Backend,
    BackendCapabilities,
    ExecutionPlan,
    backend_names,
    get_backend,
    register_backend,
    unregister_backend,
)
from .cache import QueryCache, fingerprint
from .context import ExecutionContext
from .executor import (
    DEFAULT_RESOLUTION,
    MAX_CANVAS_RESOLUTION,
    METHODS,
    SpatialAggregationEngine,
)
from .planner import CostBasedPlanner
from .heatmatrix import (
    RegionTimeMatrix,
    pixel_region_labels,
    region_time_matrix,
)
from .multipass import bounded_raster_join_multi
from .parallel import ParallelConfig, parallel_bounded_raster_join
from .pyramid import (
    DEFAULT_BLOCK,
    CanvasGrid,
    GridViewport,
    assembled_bounded_join,
    block_coverage,
    grid_viewport_for,
)
from .query import SpatialAggregation, split_time_filter
from .regions import RegionSet
from .result import AggregationResult
from .sql import ParsedQuery, parse_query, to_sql, tokenize
from .tcube import (
    MAX_TCUBE_SLICES,
    TCUBE_AGGREGATES,
    TemporalCanvasCube,
    build_temporal_canvas_cube,
    cube_for_brush,
    infer_bucket_seconds,
)
from .tiling import (
    TilePartial,
    iter_tiled_partials,
    make_tiles,
    tiled_bounded_raster_join,
)

__all__ = [
    "AVG",
    "AggregationResult",
    "BOUNDABLE_AGGREGATES",
    "Backend",
    "BackendCapabilities",
    "COUNT",
    "CanvasGrid",
    "CostBasedPlanner",
    "DEFAULT_BLOCK",
    "DEFAULT_RESOLUTION",
    "ExecutionContext",
    "ExecutionPlan",
    "GridViewport",
    "MAX",
    "MAX_CANVAS_RESOLUTION",
    "MAX_TCUBE_SLICES",
    "METHODS",
    "MIN",
    "ParallelConfig",
    "ParsedQuery",
    "PartialAggregate",
    "QueryCache",
    "RegionSet",
    "RegionTimeMatrix",
    "SUM",
    "SUPPORTED_AGGREGATES",
    "SpatialAggregation",
    "SpatialAggregationEngine",
    "TCUBE_AGGREGATES",
    "TemporalCanvasCube",
    "TilePartial",
    "accurate_raster_join",
    "assembled_bounded_join",
    "backend_names",
    "block_coverage",
    "bounded_raster_join",
    "bounded_raster_join_multi",
    "build_temporal_canvas_cube",
    "cube_for_brush",
    "epsilon_for_viewport",
    "fingerprint",
    "get_backend",
    "grid_viewport_for",
    "infer_bucket_seconds",
    "iter_tiled_partials",
    "make_tiles",
    "parallel_bounded_raster_join",
    "parse_query",
    "pixel_region_labels",
    "region_time_matrix",
    "register_backend",
    "relative_bound_width",
    "resolution_for_epsilon",
    "split_time_filter",
    "tiled_bounded_raster_join",
    "to_sql",
    "tokenize",
    "unregister_backend",
]
