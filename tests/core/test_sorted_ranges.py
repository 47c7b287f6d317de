"""Time brushes as row slices.

A top-level :class:`~repro.table.TimeRange` on a sorted timestamp
column selects ``[lo, hi)`` by two ``searchsorted`` calls, and the
other terms are evaluated on that slice only.  Whatever the query, a
:class:`~repro.core.pipeline.TableSource`'s survivors must equal
``np.flatnonzero(query.filter_mask(table))`` exactly and its
``filtered_count`` their number — bounds equal to, between and outside
the values, empty and inverted ranges, NaN floats, categoricals, a
range under ``Or`` / ``Not`` or repeated (never sliced), an unsorted
column, an empty table, and the grid-index-narrowed branch.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import SpatialAggregation
from repro.core.context import ExecutionContext
from repro.core.pipeline import TableSource
from repro.geometry import BBox
from repro.table import (
    Comparison,
    F,
    IsIn,
    Not,
    Or,
    PointTable,
    TimeRange,
    categorical_from_codes,
    timestamp_column,
)

LABELS = ("a", "b", "c")
FLOATS = st.sampled_from([np.nan, -1.5, -0.0, 0.0, 2.0, 7.25, np.inf])


@st.composite
def tables(draw, sort: bool = True) -> PointTable:
    """Sorted int64 times in runs of duplicates, a float column with
    NaN, +-0.0 and inf, and a categorical column."""
    runs = draw(st.lists(st.tuples(st.integers(-50, 50), st.integers(1, 4)),
                         max_size=20))
    t = np.repeat([v for v, _ in runs], [k for _, k in runs]).astype(np.int64)
    t = np.sort(t) if sort else t
    n = len(t)
    gen = np.random.default_rng(draw(st.integers(0, 2**16)))
    fare = np.array(draw(st.lists(FLOATS, min_size=n, max_size=n)),
                    dtype=np.float64)
    return PointTable.from_arrays(
        gen.uniform(0, 100, n), gen.uniform(0, 100, n),
        t=timestamp_column("t", t), fare=fare,
        kind=categorical_from_codes("kind", gen.integers(0, 3, n), LABELS))


BOUND = st.integers(-60, 60)


@st.composite
def time_ranges(draw) -> TimeRange:
    """Bounds equal to, between or outside the values; empty and
    inverted ranges included."""
    return TimeRange("t", draw(BOUND), draw(BOUND))


@st.composite
def extras(draw):
    """A non-time conjunct: a float comparison (NaN-aware), an IsIn, a
    Not, or a time range nested under Or / Not (not top level)."""
    op = draw(st.sampled_from(["<", "<=", ">", ">=", "==", "!="]))
    leaf = st.one_of(
        st.builds(Comparison, st.just("fare"), st.just(op), FLOATS),
        st.builds(IsIn, st.just("kind"),
                  st.lists(st.sampled_from(LABELS + ("zebra",)),
                           max_size=3).map(tuple)),
        st.builds(IsIn, st.just("t"),
                  st.lists(BOUND, max_size=4).map(tuple)))
    return draw(st.one_of(
        leaf,
        st.builds(Not, leaf),
        st.builds(Or, time_ranges(), leaf),
        st.builds(Not, time_ranges())))


def _check(table, query, ctx=True):
    source = TableSource(table, ExecutionContext() if ctx else None)
    want = np.flatnonzero(query.filter_mask(table))
    got = source.survivors(query)
    assert got.dtype.kind == "i"
    assert source.survivors(query) is got  # selected once per source
    np.testing.assert_array_equal(got, want)
    assert source.filtered_count(query) == len(want)
    return source


@settings(deadline=None)
@given(tables(), time_ranges(), st.lists(extras(), max_size=3),
       st.integers(0, 3))
def test_sliced_survivors_equal_the_mask(table, brush, others, at):
    """One top-level time range, anywhere in the filter list, among
    other terms (some ANDed into one filter)."""
    filters = others[:at] + [brush] + others[at:]
    query = SpatialAggregation.count(*filters)
    assert _check(table, query).sliced is True
    # Without a context (no kept sortedness) the range keeps the mask.
    assert _check(table, query, ctx=False).sliced is False
    if len(others) > 1:
        anded = SpatialAggregation.count(brush, others[0] & others[1])
        assert _check(table, anded).sliced is True


@settings(deadline=None)
@given(tables(), st.lists(extras(), min_size=1, max_size=3),
       time_ranges(), time_ranges())
def test_nested_or_repeated_time_ranges_are_not_sliced(table, others, a, b):
    """A range under Or / Not or inside one ANDed filter, or two
    top-level ranges: the whole-table mask, ``sliced`` None."""
    for filters in (others, [a & others[0]], [a, b, *others]):
        query = SpatialAggregation.count(*filters)
        assert _check(table, query).sliced is None


@settings(deadline=None)
@given(tables(sort=False), time_ranges(), st.lists(extras(), max_size=2))
def test_an_unsorted_column_keeps_the_mask(table, brush, others):
    t = table.column("t").values
    source = _check(table, SpatialAggregation.count(brush, *others))
    assert source.sliced is bool(np.all(t[:-1] <= t[1:]))


def test_empty_table_and_no_filters():
    empty = PointTable.from_arrays(
        np.empty(0), np.empty(0), t=timestamp_column("t", []),
        fare=np.empty(0))
    _check(empty, SpatialAggregation.count(TimeRange("t", 0, 10)))
    _check(empty, SpatialAggregation.count(TimeRange("t", 0, 10),
                                           F("fare") > 1))
    source = TableSource(empty, ExecutionContext())
    assert source.survivors(SpatialAggregation.count()) is None
    assert source.filtered_count(SpatialAggregation.count()) == 0


def test_a_non_timestamp_range_still_raises():
    table = PointTable.from_arrays(np.zeros(3), np.zeros(3),
                                   v=np.arange(3.0))
    source = TableSource(table, ExecutionContext())
    with pytest.raises(Exception, match="timestamp"):
        source.survivors(SpatialAggregation.count(TimeRange("v", 0, 2)))


@settings(deadline=None, max_examples=30)
@given(st.integers(0, 2**16), st.integers(0, 1_000), st.integers(1, 400))
def test_the_narrowed_branch_keeps_only_slice_survivors(seed, start, span):
    """Boxes holding under a quarter of the table: the grid-index rows,
    restricted to the slice and its other terms, in row order."""
    gen = np.random.default_rng(seed)
    n = 4_000
    t = np.sort(gen.integers(0, 1_000, n))
    table = PointTable.from_arrays(
        gen.uniform(0, 100, n), gen.uniform(0, 100, n),
        t=timestamp_column("t", t), fare=gen.normal(5, 4, n))
    ctx = ExecutionContext()
    query = SpatialAggregation.count(TimeRange("t", start, start + span),
                                     F("fare") > 4)
    source = TableSource(table, ctx)
    boxes = [BBox(10, 10, 30, 25), BBox(25, 20, 40, 40)]
    (_, rows), = source.chunks(query, boxes)
    assert source.narrowed and source.sliced
    index = ctx.grid_index(table)
    candidates = np.unique(np.concatenate([index.query_bbox(b)
                                           for b in boxes]))
    np.testing.assert_array_equal(
        rows, candidates[query.filter_mask(table)[candidates]])
