"""Filter expressions — the ``[AND filterCondition]*`` of the query.

Filters form a small composable AST evaluated to boolean row masks.
They are deliberately cheap: the whole premise of on-the-fly evaluation
(vs. pre-aggregation) is that arbitrary predicate combinations reduce to
vectorized mask computations over the columns.

Usage::

    from repro.table import F
    expr = (F("fare") > 10.0) & F("hour").between(7, 9) & (F("kind") == "yellow")
    mask = expr.mask(table)
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import QueryError
from .column import CATEGORICAL, TIMESTAMP
from .table import PointTable

_OPS = ("<", "<=", ">", ">=", "==", "!=")


class FilterExpr:
    """Base class of filter AST nodes."""

    def mask(self, table: PointTable) -> np.ndarray:
        """Evaluate to a boolean mask over the table's rows."""
        raise NotImplementedError

    def columns(self) -> set[str]:
        """Names of the columns this expression reads."""
        raise NotImplementedError

    def __and__(self, other: "FilterExpr") -> "FilterExpr":
        return And(self, other)

    def __or__(self, other: "FilterExpr") -> "FilterExpr":
        return Or(self, other)

    def __invert__(self) -> "FilterExpr":
        return Not(self)


@dataclass(frozen=True)
class Comparison(FilterExpr):
    """``column <op> value`` for a scalar value.

    For categorical columns the value is a string label that is resolved
    to its code at evaluation time (only ``==`` / ``!=`` make sense).
    """

    column: str
    op: str
    value: object

    def __post_init__(self):
        if self.op not in _OPS:
            raise QueryError(f"unknown comparison operator {self.op!r}")

    def mask(self, table: PointTable) -> np.ndarray:
        col = table.column(self.column)
        value = self.value
        if col.kind == CATEGORICAL:
            if self.op not in ("==", "!="):
                raise QueryError(
                    f"operator {self.op!r} not supported on categorical "
                    f"column {self.column!r}"
                )
            if isinstance(value, str):
                try:
                    value = col.code_for(value)
                except Exception:
                    # Unknown label matches nothing (or everything for !=).
                    n = len(table)
                    return np.full(n, self.op == "!=", dtype=bool)
        vals = col.values
        if self.op == "<":
            return vals < value
        if self.op == "<=":
            return vals <= value
        if self.op == ">":
            return vals > value
        if self.op == ">=":
            return vals >= value
        if self.op == "==":
            return vals == value
        return vals != value

    def columns(self) -> set[str]:
        return {self.column}


@dataclass(frozen=True)
class Between(FilterExpr):
    """``lo <= column <= hi`` (closed interval)."""

    column: str
    lo: object
    hi: object

    def mask(self, table: PointTable) -> np.ndarray:
        vals = table.column(self.column).values
        return (vals >= self.lo) & (vals <= self.hi)

    def columns(self) -> set[str]:
        return {self.column}


@dataclass(frozen=True)
class IsIn(FilterExpr):
    """``column IN (values...)``; labels are resolved for categoricals."""

    column: str
    values: tuple

    def mask(self, table: PointTable) -> np.ndarray:
        col = table.column(self.column)
        values = list(self.values)
        if col.kind == CATEGORICAL:
            codes = []
            for v in values:
                if isinstance(v, str) and v in col.categories:
                    codes.append(col.categories.index(v))
                elif isinstance(v, (int, np.integer)):
                    codes.append(int(v))
            values = codes
        if not values:
            return np.zeros(len(table), dtype=bool)
        return np.isin(col.values, np.asarray(values))

    def columns(self) -> set[str]:
        return {self.column}


@dataclass(frozen=True)
class TimeRange(FilterExpr):
    """Half-open time interval ``start <= t < end`` on a timestamp column.

    Half-open so consecutive windows partition the timeline — the
    convention Urbane's timeline brushing uses.
    """

    column: str
    start: int
    end: int

    def mask(self, table: PointTable) -> np.ndarray:
        col = table.column(self.column)
        if col.kind != TIMESTAMP:
            raise QueryError(
                f"TimeRange needs a timestamp column, {self.column!r} is "
                f"{col.kind}"
            )
        vals = col.values
        return (vals >= int(self.start)) & (vals < int(self.end))

    def columns(self) -> set[str]:
        return {self.column}


@dataclass(frozen=True)
class And(FilterExpr):
    left: FilterExpr
    right: FilterExpr

    def mask(self, table: PointTable) -> np.ndarray:
        return self.left.mask(table) & self.right.mask(table)

    def columns(self) -> set[str]:
        return self.left.columns() | self.right.columns()


@dataclass(frozen=True)
class Or(FilterExpr):
    left: FilterExpr
    right: FilterExpr

    def mask(self, table: PointTable) -> np.ndarray:
        return self.left.mask(table) | self.right.mask(table)

    def columns(self) -> set[str]:
        return self.left.columns() | self.right.columns()


@dataclass(frozen=True)
class Not(FilterExpr):
    inner: FilterExpr

    def mask(self, table: PointTable) -> np.ndarray:
        return ~self.inner.mask(table)

    def columns(self) -> set[str]:
        return self.inner.columns()


@dataclass(frozen=True)
class TrueFilter(FilterExpr):
    """Matches every row (the empty filter list)."""

    def mask(self, table: PointTable) -> np.ndarray:
        return np.ones(len(table), dtype=bool)

    def columns(self) -> set[str]:
        return set()


class F:
    """Column reference with operator sugar for building filters.

    ``F("fare") > 10`` returns a :class:`Comparison`; ``F("t").between``
    and ``F("kind").isin`` build the other node types.
    """

    def __init__(self, column: str):
        self.column = column

    def __lt__(self, value) -> Comparison:
        return Comparison(self.column, "<", value)

    def __le__(self, value) -> Comparison:
        return Comparison(self.column, "<=", value)

    def __gt__(self, value) -> Comparison:
        return Comparison(self.column, ">", value)

    def __ge__(self, value) -> Comparison:
        return Comparison(self.column, ">=", value)

    def __eq__(self, value) -> Comparison:  # type: ignore[override]
        return Comparison(self.column, "==", value)

    def __ne__(self, value) -> Comparison:  # type: ignore[override]
        return Comparison(self.column, "!=", value)

    def __hash__(self):
        return hash(self.column)

    def between(self, lo, hi) -> Between:
        return Between(self.column, lo, hi)

    def isin(self, values) -> IsIn:
        return IsIn(self.column, tuple(values))

    def time_range(self, start: int, end: int) -> TimeRange:
        return TimeRange(self.column, int(start), int(end))


def combine_filters(filters) -> FilterExpr:
    """AND together a list of filters (empty list -> match-all)."""
    exprs = list(filters or [])
    if not exprs:
        return TrueFilter()
    result = exprs[0]
    for expr in exprs[1:]:
        result = And(result, expr)
    return result

