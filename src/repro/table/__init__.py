"""Columnar point-table substrate.

The ``P(loc, a1, a2, ...)`` side of the spatial aggregation query: an
immutable column store for 2-D points with numeric / timestamp /
categorical attributes, plus the filter-expression AST that implements
the query's ad-hoc ``filterCondition`` list.
"""

from .column import (
    CATEGORICAL,
    NUMERIC,
    TIMESTAMP,
    Column,
    categorical_column,
    categorical_from_codes,
    numeric_column,
    timestamp_column,
)
from .filters import (
    And,
    Between,
    Comparison,
    F,
    FilterExpr,
    IsIn,
    Not,
    Or,
    TimeRange,
    TrueFilter,
    combine_filters,
)
from .io import iter_csv_chunks, load_csv, load_npz, save_csv, save_npz
from .table import PointTable, table_from_dict

__all__ = [
    "And",
    "Between",
    "CATEGORICAL",
    "Column",
    "Comparison",
    "F",
    "FilterExpr",
    "IsIn",
    "NUMERIC",
    "Not",
    "Or",
    "PointTable",
    "TIMESTAMP",
    "TimeRange",
    "TrueFilter",
    "categorical_column",
    "categorical_from_codes",
    "combine_filters",
    "iter_csv_chunks",
    "load_csv",
    "load_npz",
    "numeric_column",
    "save_csv",
    "save_npz",
    "table_from_dict",
    "timestamp_column",
]
