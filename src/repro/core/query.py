"""The spatial aggregation query model.

A :class:`SpatialAggregation` captures the paper's query template:

    SELECT AGG(a_i) FROM P, R
    WHERE P.loc INSIDE R.geometry [AND filterCondition]*
    GROUP BY R.id

— an aggregate, an optional value column, and an ad-hoc filter list
(attribute predicates and/or a time range).  Queries are plain immutable
descriptions; execution lives in the executor/backends.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from ..errors import QueryError
from ..table import FilterExpr, PointTable, TimeRange, combine_filters
from .aggregates import COUNT, validate_aggregate


@dataclass(frozen=True)
class SpatialAggregation:
    """Immutable description of one spatial aggregation query."""

    agg: str = COUNT
    value_column: str | None = None
    filters: tuple[FilterExpr, ...] = field(default_factory=tuple)

    def __post_init__(self):
        validate_aggregate(self.agg, self.value_column)
        object.__setattr__(self, "filters", tuple(self.filters))

    # -- fluent constructors ----------------------------------------------

    @classmethod
    def count(cls, *filters: FilterExpr) -> "SpatialAggregation":
        return cls(COUNT, None, tuple(filters))

    @classmethod
    def sum_of(cls, column: str, *filters: FilterExpr) -> "SpatialAggregation":
        return cls("sum", column, tuple(filters))

    @classmethod
    def avg_of(cls, column: str, *filters: FilterExpr) -> "SpatialAggregation":
        return cls("avg", column, tuple(filters))

    @classmethod
    def min_of(cls, column: str, *filters: FilterExpr) -> "SpatialAggregation":
        return cls("min", column, tuple(filters))

    @classmethod
    def max_of(cls, column: str, *filters: FilterExpr) -> "SpatialAggregation":
        return cls("max", column, tuple(filters))

    def where(self, *filters: FilterExpr) -> "SpatialAggregation":
        """A copy with extra filter conditions ANDed on."""
        return SpatialAggregation(
            self.agg, self.value_column, self.filters + tuple(filters))

    def during(self, time_column: str, start: int, end: int
               ) -> "SpatialAggregation":
        """A copy restricted to the half-open time interval [start, end)."""
        return self.where(TimeRange(time_column, int(start), int(end)))

    # -- evaluation helpers --------------------------------------------------

    @cached_property
    def filter_key(self) -> str:
        """``repr(filters)``, computed once per query: the filter part
        of its cache keys."""
        return repr(self.filters)

    def filter_mask(self, table: PointTable) -> np.ndarray:
        """Boolean mask of rows passing every filter condition."""
        return combine_filters(self.filters).mask(table)

    def values_for(self, table: PointTable) -> np.ndarray | None:
        """The value-column array, or None for COUNT.

        Raises :class:`QueryError` when the column is categorical —
        numeric aggregates over labels are meaningless.
        """
        if self.value_column is None:
            return None
        col = table.column(self.value_column)
        if col.kind == "categorical":
            raise QueryError(
                f"cannot aggregate categorical column {self.value_column!r}")
        return col.values.astype(np.float64, copy=False)

    def describe(self) -> str:
        """SQL-ish rendering for logs and benchmark reports."""
        target = "*" if self.value_column is None else self.value_column
        where = f" with {len(self.filters)} filter(s)" if self.filters else ""
        return f"SELECT {self.agg.upper()}({target}) GROUP BY region{where}"


def split_time_filter(query: SpatialAggregation,
                      time_column: str | None = None
                      ) -> tuple[TimeRange | None, tuple]:
    """Split a query's filters into (the TimeRange, everything else).

    Returns ``(None, query.filters)`` unless exactly one
    :class:`TimeRange` (on ``time_column``, when given) is present —
    the temporal cube and a table source's row slice each replace one
    time brush, not arbitrary temporal algebra.
    """
    times = [f for f in query.filters if isinstance(f, TimeRange)
             and (time_column is None or f.column == time_column)]
    if len(times) != 1:
        return None, query.filters
    residual = tuple(f for f in query.filters if f is not times[0])
    return times[0], residual
