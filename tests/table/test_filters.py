"""Unit and property tests for the filter-expression AST."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import QueryError
from repro.table import (
    Comparison,
    F,
    PointTable,
    TimeRange,
    TrueFilter,
    combine_filters,
    timestamp_column,
)


@pytest.fixture(scope="module")
def table():
    gen = np.random.default_rng(42)
    n = 5_000
    return PointTable.from_arrays(
        gen.uniform(0, 1, n), gen.uniform(0, 1, n),
        v=gen.normal(0, 10, n),
        t=timestamp_column("t", gen.integers(0, 1000, n)),
        kind=gen.choice(["a", "b", "c"], n, p=[0.5, 0.3, 0.2]))


class TestComparison:
    def test_greater(self, table):
        mask = (F("v") > 0).mask(table)
        assert (table.values("v")[mask] > 0).all()
        assert (table.values("v")[~mask] <= 0).all()

    def test_all_operators(self, table):
        v = table.values("v")
        assert ((F("v") < 1).mask(table) == (v < 1)).all()
        assert ((F("v") <= 1).mask(table) == (v <= 1)).all()
        assert ((F("v") >= 1).mask(table) == (v >= 1)).all()
        assert ((F("v") == v[0]).mask(table) == (v == v[0])).all()
        assert ((F("v") != v[0]).mask(table) == (v != v[0])).all()

    def test_categorical_equality_by_label(self, table):
        mask = (F("kind") == "b").mask(table)
        assert (table.column("kind").decode()[mask] == "b").all()

    def test_categorical_inequality(self, table):
        mask = (F("kind") != "b").mask(table)
        assert (table.column("kind").decode()[mask] != "b").all()

    def test_unknown_label_matches_nothing(self, table):
        assert not (F("kind") == "zebra").mask(table).any()

    def test_unknown_label_neq_matches_all(self, table):
        assert (F("kind") != "zebra").mask(table).all()

    def test_ordering_on_categorical_rejected(self, table):
        with pytest.raises(QueryError):
            Comparison("kind", "<", "b").mask(table)

    def test_bad_operator_rejected(self):
        with pytest.raises(QueryError):
            Comparison("v", "~", 1)

    def test_missing_column(self, table):
        with pytest.raises(Exception):
            (F("nope") > 0).mask(table)


class TestBetweenIsIn:
    def test_between_closed(self, table):
        mask = F("v").between(-1, 1).mask(table)
        v = table.values("v")[mask]
        assert ((v >= -1) & (v <= 1)).all()

    def test_isin_labels(self, table):
        mask = F("kind").isin(["a", "c"]).mask(table)
        got = set(table.column("kind").decode()[mask])
        assert got <= {"a", "c"}

    def test_isin_empty(self, table):
        assert not F("kind").isin([]).mask(table).any()

    def test_isin_numeric(self, table):
        t2 = table.take(np.arange(100))
        vals = t2.values("v")[:3]
        mask = F("v").isin(list(vals)).mask(t2)
        assert mask[:3].all()


class TestTimeRange:
    def test_half_open(self, table):
        mask = TimeRange("t", 100, 200).mask(table)
        t = table.values("t")[mask]
        assert ((t >= 100) & (t < 200)).all()

    def test_adjacent_windows_partition(self, table):
        m1 = TimeRange("t", 0, 500).mask(table)
        m2 = TimeRange("t", 500, 1000).mask(table)
        assert not (m1 & m2).any()
        assert (m1 | m2).all()

    def test_requires_timestamp_column(self, table):
        with pytest.raises(QueryError):
            TimeRange("v", 0, 10).mask(table)

    def test_f_sugar(self, table):
        a = F("t").time_range(10, 20).mask(table)
        b = TimeRange("t", 10, 20).mask(table)
        assert (a == b).all()


class TestBooleanAlgebra:
    def test_and(self, table):
        m = ((F("v") > 0) & (F("kind") == "a")).mask(table)
        assert (m == ((F("v") > 0).mask(table)
                      & (F("kind") == "a").mask(table))).all()

    def test_or(self, table):
        m = ((F("v") > 5) | (F("v") < -5)).mask(table)
        v = table.values("v")[m]
        assert ((v > 5) | (v < -5)).all()

    def test_not(self, table):
        m = (~(F("v") > 0)).mask(table)
        assert (m == (table.values("v") <= 0)).all()

    def test_de_morgan(self, table):
        a = F("v") > 0
        b = F("kind") == "a"
        lhs = (~(a & b)).mask(table)
        rhs = ((~a) | (~b)).mask(table)
        assert (lhs == rhs).all()

    def test_columns_union(self):
        expr = (F("v") > 0) & (F("kind") == "a") | (F("t").between(0, 1))
        assert expr.columns() == {"v", "kind", "t"}


class TestCombinators:
    def test_empty_list_matches_all(self, table):
        assert combine_filters([]).mask(table).all()

    def test_true_filter(self, table):
        assert TrueFilter().mask(table).all()
        assert TrueFilter().columns() == set()

    def test_combine_is_and(self, table):
        exprs = [F("v") > 0, F("kind") == "a"]
        combined = combine_filters(exprs).mask(table)
        manual = exprs[0].mask(table) & exprs[1].mask(table)
        assert (combined == manual).all()


@settings(max_examples=25, deadline=None)
@given(st.floats(-30, 30), st.floats(0, 10))
def test_between_window_property(lo, width):
    gen = np.random.default_rng(11)
    t = PointTable.from_arrays(gen.uniform(0, 1, 300),
                               gen.uniform(0, 1, 300),
                               v=gen.normal(0, 10, 300))
    mask = F("v").between(lo, lo + width).mask(t)
    v = t.values("v")
    assert (mask == ((v >= lo) & (v <= lo + width))).all()


def test_between_equivalent_to_comparisons():
    gen = np.random.default_rng(7)
    t = PointTable.from_arrays(gen.uniform(0, 1, 500),
                               gen.uniform(0, 1, 500),
                               v=gen.normal(size=500))
    lo, hi = -0.5, 0.7
    a = F("v").between(lo, hi).mask(t)
    b = ((F("v") >= lo) & (F("v") <= hi)).mask(t)
    assert (a == b).all()
