"""The point pipeline: source → project → fold → sink.

Every raster join starts with the same point pass — Urbane's "draw the
filtered points with blending" — and this module is its only copy.

* A **source** yields row-ordered chunks of filter-surviving rows and
  checks ``cancel`` before each one.  :class:`TableSource` is an
  in-memory table, one chunk: every survivor, or only those the grid
  index finds in the sink's boxes when those hold under
  :data:`SCAN_FRACTION` of the table; a time brush on a sorted column
  selects its row slice without a pass over the table.
  :class:`DatasetSource` is a store's pruned partitions in manifest
  order, each mounted only when it can reach the sink.
* :func:`project` maps a chunk's rows to the sink's pixel ids (on a
  grid, from a table's cached pixel columns) and gathers their values.
* :func:`fold` continues each canvas's element-sequential accumulation
  with one chunk.
* A **sink** is where the pixels live: a :class:`Window` of a viewport
  (the whole canvas, or one tile), or pyramid :class:`Blocks` — the
  window of their bounding block rectangle.  Every sink locates a
  point with its viewport's ``pixel_of`` and one range test.

**Why every source and sink gives the same bits.**  ``np.add.at`` is
unbuffered and applies contributions in element order, so each pixel's
sum is the left fold of its points in (source order, row order) — and
``np.add.at`` into a zero canvas equals ``np.bincount`` bit for bit.
An in-memory table is the one-chunk case; a store continues the same
fold partition by partition in manifest order, which is
``Dataset.to_table()``'s row order.  A tile or a block only selects
which pixels receive points, never the order they arrive in.  COUNT
adds exact small integers and MIN/MAX are order-free (a NaN poisons its
pixel either way), so those match under any chunking.

**Why a sorted slice gives the same rows.**  On an ascending column the
rows with ``start <= t < end`` are exactly ``[lo, hi)`` for ``lo, hi``
the left ``searchsorted`` positions of ``start`` and ``end``.  A
conjunction holds on a row only if every term does, so the survivors
are that slice's rows on which the other terms hold: ascending, and
the ones the whole-table mask selects.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .. import kernels
from ..errors import QueryCancelled
from ..index import PointGridIndex
from ..obs.trace import span
from ..table import TIMESTAMP, combine_filters
from .cache import fingerprint
from .query import split_time_filter

#: Canvas fill where no point landed, per kind.
FILLS = {"count": 0.0, "sum": 0.0, "mass": 0.0,
         "min": np.inf, "max": -np.inf}

#: A table source scans in row order instead of narrowing through its
#: grid index once the sink's boxes hold this fraction of the table's
#: points (cell candidates, overlaps counted twice).  Measured on 300k
#: trips into 128-px blocks on a 2-core Xeon: gather+sort+locate vs
#: scan+locate is 8.1 vs 2.1 ms at 1.12 of the table, 2.3 vs 1.8 at
#: 0.40, 1.2 vs 1.75 at 0.17 and 0.28 vs 1.6 at 0.01.
SCAN_FRACTION = 0.25


def _check(cancel) -> None:
    if cancel is not None and cancel.is_set():
        raise QueryCancelled("point pass cancelled between chunks")


class _Slice:
    """Rows ``[lo, hi)`` of a table as filter expressions read them:
    each column a view of its slice, nothing copied."""

    def __init__(self, table, lo: int, hi: int):
        self.table, self.rows = table, slice(lo, hi)

    def __len__(self) -> int:
        return self.rows.stop - self.rows.start

    def column(self, name: str):
        column = self.table.column(name)
        return replace(column, values=column.values[self.rows])


# -- sources -----------------------------------------------------------------


class TableSource:
    """An in-memory table: one chunk, in row order.

    A query's survivors are selected at most once per source (see
    :meth:`survivors`); with an execution context the grid index,
    column facts and pixel columns come from its cache, shared across
    gestures.

    When a sink passes boxes, the grid index counts the candidates they
    hold (:meth:`~repro.index.PointGridIndex.count_bbox`, no id array
    built).  Below :data:`SCAN_FRACTION` of the table the rows are
    narrowed through the index — gathered, sorted back into row order
    and deduplicated — so a few pyramid blocks or one tile never touch
    the whole table.  At or above it the gather and sort would cost
    more than they save, so the chunk is every filter survivor in row
    order and the sink's locate drops the points outside.  Both
    branches yield ascending rows, so the fold is the same either way;
    ``narrowed`` records which one the last pass took, and ``sliced``
    whether its time brush selected a row slice (see :meth:`survivors`).
    """

    def __init__(self, table, ctx=None, cancel=None):
        self.table = table
        self.ctx = ctx
        self.cancel = cancel
        self.paged = 0
        self.narrowed = False
        self.sliced = None
        self._survivors: dict = {}
        self._index = None

    def span(self):
        return span("scatter")

    def survivors(self, query):
        """Ascending ids of the rows passing ``query``'s filters (None
        without filters), selected at most once per source.

        With a context, the query's time brush (its one
        :class:`~repro.table.TimeRange` filter, see
        :func:`~repro.core.query.split_time_filter`) on a sorted
        timestamp column is the row slice two ``searchsorted`` calls
        find, and only the other filters are evaluated, on that slice.
        ``sliced`` says whether the brush was sliced (None: no brush).
        """
        if not query.filters:
            self.sliced = None
            return None
        if query.filter_key not in self._survivors:
            brush, rest = split_time_filter(query)
            sliced = brush and self.ascending(brush.column)
            if sliced:
                lo, hi = np.searchsorted(
                    self.table.column(brush.column).values,
                    (int(brush.start), int(brush.end)))
                rows = np.arange(lo, max(lo, hi))
                if rest:
                    rows = rows[combine_filters(rest).mask(
                        _Slice(self.table, lo, lo + len(rows)))]
            else:
                rows = np.flatnonzero(query.filter_mask(self.table))
            self._survivors[query.filter_key] = rows, sliced
        rows, self.sliced = self._survivors[query.filter_key]
        return rows

    def pixel_columns(self, viewport):
        """The table's level-0 pixel (col, row) on ``viewport``'s grid,
        cached per (table, grid); None off a grid or without a context."""
        grid = getattr(viewport, "grid", None)
        if grid is None or self.ctx is None:
            return None
        key = ("pixel-column", fingerprint(self.table), grid)
        return self.ctx.cache.get_or_build(
            key, lambda: grid.level_pixel(self.table.x, self.table.y, 0))

    def filtered_count(self, query) -> int:
        rows = self.survivors(query)
        return len(self.table) if rows is None else len(rows)

    def nonnegative(self, query) -> bool:
        """Every value is >= 0 and not NaN, so ``|v| == v``."""
        def probe() -> bool:
            values = query.values_for(self.table)
            return not len(values) or bool(values.min() >= 0)

        return self._column_fact("column-nonnegative", query.value_column,
                                 probe)

    def integral(self, column: str) -> bool:
        """Whether every value of ``column`` is an exact integer below
        2^53, so float sums of any subset are exact in any association —
        the license to derive coarse SUM blocks by 2x2 reduction."""
        def probe() -> bool:
            values = np.asarray(self.table.column(column).values)
            if values.dtype.kind in "iub":
                return bool(np.all(np.abs(values.astype(np.float64))
                                   < 2.0 ** 53))
            if values.dtype.kind != "f":
                return False
            return bool(np.all(np.isfinite(values))
                        and np.all(values == np.floor(values))
                        and np.all(np.abs(values) < 2.0 ** 53))

        return self._column_fact("column-integral", column, probe)

    def ascending(self, column: str) -> bool:
        """Whether ``column`` is a timestamp column in ascending order;
        never without a context, which keeps the fact."""
        if self.ctx is None or not self.table.has_column(column):
            return False
        col = self.table.column(column)
        return col.kind == TIMESTAMP and self._column_fact(
            "column-sorted", column,
            lambda: bool(np.all(col.values[:-1] <= col.values[1:])))

    def extent(self, column: str) -> tuple[int, int] | None:
        """``(min, max)`` of ``column`` as ints; None for no rows."""
        values = self.table.column(column).values
        return self._column_fact("column-extent", column, lambda: (
            (int(values.min()), int(values.max())) if len(values) else None))

    def _column_fact(self, name: str, column: str, probe):
        """``probe()``, cached under ``(name, fingerprint(table),
        column)`` when there is a context: tables are immutable, so a
        fact about a column never goes stale."""
        if self.ctx is None:
            return probe()
        key = (name, fingerprint(self.table), column)
        return self.ctx.cache.get_or_build(key, probe)

    def _grid_index(self) -> PointGridIndex:
        if self.ctx is not None:
            return self.ctx.grid_index(self.table)
        if self._index is None:
            self._index = PointGridIndex.over(self.table.x, self.table.y,
                                              cells=128)
        return self._index

    def chunks(self, query, boxes=None):
        _check(self.cancel)
        self.paged += 1
        survivors = self.survivors(query)
        index = self._grid_index() if boxes and len(self.table) else None
        self.narrowed = index is not None and (
            sum(index.count_bbox(b) for b in boxes)
            < SCAN_FRACTION * len(self.table))
        if not self.narrowed:
            # Every survivor, in row order; a sink with boxes drops the
            # points outside them in its locate.
            yield self.table, survivors
            return
        rows = np.sort(np.concatenate([index.query_bbox(b) for b in boxes]))
        if len(boxes) > 1:  # overlapping boxes share grid cells
            rows = rows[np.diff(rows, prepend=-1) != 0]
        yield self.table, rows if survivors is None else rows[
            np.isin(rows, survivors, kind="table")]


class DatasetSource:
    """A store's pruned partitions, in manifest order.

    A partition is mounted only when its bbox meets one of the sink's
    boxes.  Its filter survivors are counted once however many tiles
    page it, so ``filtered_count`` is over the partitions actually read.
    """

    #: A store narrows by skipping partitions, not through a grid index,
    #: and brushes time by zone maps, not by a row slice.
    narrowed = sliced = None

    def __init__(self, dataset, survivors: list[int], cancel=None):
        self.table = dataset
        self.survivors = survivors
        self.cancel = cancel
        self.paged = 0
        self._filtered: dict[int, int] = {}

    def span(self):
        return span("store.scan", partitions=len(self.survivors))

    def filtered_count(self, query) -> int:
        return sum(self._filtered.values())

    def nonnegative(self, query) -> bool:
        """Zone-map proof that every surviving value is >= 0 and not
        NaN; unprovable (no zone, NaNs, a negative minimum) is False."""
        from ..store.format import zone_min

        for index in self.survivors:
            zone = self.table.partitions[index].zones.get(query.value_column)
            if zone is None or int(zone.get("nan_count", 0)) > 0:
                return False
            lo = zone_min(zone)
            if lo is None or lo < 0:
                return False
        return True

    def integral(self, column: str) -> bool:
        return False  # no proof without reading every value

    def pixel_columns(self, viewport):
        return None  # partitions project through the float transform

    def chunks(self, query, boxes=None):
        infos = self.table.partitions
        for index in self.survivors:
            bbox = infos[index].bbox
            if boxes is not None and bbox is not None and not any(
                    bbox.intersects(box) for box in boxes):
                continue
            _check(self.cancel)
            self.paged += 1
            table = self.table.partition_table(index)
            rows = (np.flatnonzero(query.filter_mask(table))
                    if query.filters else None)
            self._filtered[index] = len(table) if rows is None else len(rows)
            yield table, rows


def as_source(table, ctx=None, cancel=None):
    """``table`` itself when it already is a source, else a
    :class:`TableSource` over it."""
    if hasattr(table, "chunks"):
        return table
    return TableSource(table, ctx, cancel)


# -- sinks -------------------------------------------------------------------


class Window:
    """A rectangle of a viewport's pixel grid: the whole canvas, or one
    tile of a virtual canvas (then padded by a pixel into ``boxes``, a
    superset of every point the transform maps into it).

    ``needed``, when set, is a flat per-pixel mask of the pixels that
    take points; a point on any other pixel is outside.
    """

    def __init__(self, viewport, tile=None):
        self.viewport = viewport
        self.boxes = None
        self.needed = None
        if tile is None:
            self.col0 = self.row0 = 0
            self.width, self.height = viewport.width, viewport.height
        else:
            tile_vp, self.col0, self.row0 = tile
            self.width, self.height = tile_vp.width, tile_vp.height
            self.boxes = [tile_vp.bbox.expand(
                max(viewport.pixel_width, viewport.pixel_height))]
        self.size = self.width * self.height

    def locate(self, x, y) -> tuple[np.ndarray, np.ndarray]:
        return self._place(*self.viewport.pixel_of(x, y), self.col0,
                           self.row0)

    def locate_columns(self, col, row) -> tuple[np.ndarray, np.ndarray]:
        """:meth:`locate` from level-0 pixel columns on a grid viewport:
        ``(col >> level) - col0`` is what its ``pixel_of`` computes."""
        vp = self.viewport
        return self._place(col >> vp.level, row >> vp.level,
                           vp.col0 + self.col0, vp.row0 + self.row0)

    def _place(self, ix, iy, col0, row0):
        if col0 or row0:
            ix = ix - col0
            iy = iy - row0
        inside = (ix >= 0) & (ix < self.width) & (iy >= 0) & (iy < self.height)
        pix = iy * self.width + ix
        if self.needed is not None:
            keep = np.flatnonzero(inside)
            inside[keep] = self.needed[pix[keep]]
        return pix, inside


class Blocks(Window):
    """Pyramid blocks ``(bx, by)`` at one grid level: a :class:`Window`
    over the grid viewport of their bounding block rectangle, so a
    point is located by the same ``CanvasGrid.level_pixel`` a
    :class:`~repro.core.pyramid.GridViewport` uses and one range test.

    ``boxes`` are the listed blocks' padded bboxes, for the source to
    narrow by.  When the list does not fill the rectangle (the L-shaped
    delta of a diagonal pan) ``needed`` keeps the unlisted blocks empty.
    """

    def __init__(self, grid, level: int, blocks: list[tuple[int, int]]):
        side = grid.block
        bxs = np.array([b[0] for b in blocks], dtype=np.int64)
        bys = np.array([b[1] for b in blocks], dtype=np.int64)
        bx0, by0 = int(bxs.min()), int(bys.min())
        nbx, nby = int(bxs.max()) - bx0 + 1, int(bys.max()) - by0 + 1
        super().__init__(grid.viewport(level, bx0 * side, by0 * side,
                                       nbx * side, nby * side))
        self.side = side
        self.boxes = [grid.block_bbox(level, bx, by) for bx, by in blocks]
        # Top-left (row, col) of each listed block in the rectangle.
        self.corners = list(zip(((bys - by0) * side).tolist(),
                                ((bxs - bx0) * side).tolist()))
        listed = np.zeros((nby, nbx), dtype=bool)
        listed[bys - by0, bxs - bx0] = True
        if not listed.all():
            self.needed = listed.repeat(side, 0).repeat(side, 1).ravel()

    def plane(self, canvas: np.ndarray, slot: int) -> np.ndarray:
        """A copy of the ``(block, block)`` plane of listed block
        ``slot``."""
        row, col = self.corners[slot]
        return canvas.reshape(self.height, self.width)[
            row:row + self.side, col:col + self.side].copy()


# -- project, fold, fill -----------------------------------------------------


def project(table, rows, query, sink, columns=None):
    """Filter survivors → ``(rows, pixel ids, values)`` of the points
    inside ``sink``, in row order (``rows`` None: every row of
    ``table``).  ``columns``: ``table``'s cached base-pixel columns
    (:meth:`TableSource.pixel_columns`), read instead of x and y."""
    if columns is not None:
        locate, (x, y) = sink.locate_columns, columns
    else:
        locate, x, y = sink.locate, table.x, table.y
    if rows is not None:
        x, y = x[rows], y[rows]
    pix, inside = locate(x, y)
    if not inside.all():
        keep = np.flatnonzero(inside)
        pix = pix[keep]
        rows = keep if rows is None else rows[keep]
    return rows, pix, _values(table, rows, query)


def _values(table, rows, query):
    values = query.values_for(table)
    return values if values is None or rows is None else values[rows]


def new_canvases(source, query, kinds, size: int) -> dict[str, np.ndarray]:
    """Fresh canvases of ``kinds``.  SUM's boundary ``mass`` (the |v|
    fold) *is* the sum canvas when the source proves the values
    non-negative — the same fold, bit for bit — and is folded on its
    own otherwise."""
    canvases = {k: np.full(size, FILLS[k]) for k in kinds if k != "mass"}
    if "mass" in kinds:
        if source.nonnegative(query):
            canvases.setdefault("sum", np.zeros(size))
            canvases["mass"] = canvases["sum"]
        else:
            canvases["mass"] = np.zeros(size)
    return canvases


def fold(canvases: dict[str, np.ndarray], pix: np.ndarray,
         values: np.ndarray | None) -> None:
    """Continue every canvas's element-sequential fold with one chunk."""
    add_at = kernels.active().scatter_add_at
    if "count" in canvases:
        np.add.at(canvases["count"], pix, 1.0)
    if "sum" in canvases:
        add_at(canvases["sum"], pix, values)
    mass = canvases.get("mass")
    if mass is not None and mass is not canvases.get("sum"):
        add_at(mass, pix, np.abs(values))
    with np.errstate(invalid="ignore"):  # NaN poisons its pixel
        if "min" in canvases:
            np.minimum.at(canvases["min"], pix, values)
        if "max" in canvases:
            np.maximum.at(canvases["max"], pix, values)


@dataclass
class PointPass:
    """One pass's canvases, its folded point count and, when kept, each
    chunk's ``(table, rows, pixel ids, values)``."""

    canvases: dict
    points: int = 0
    paged: int = 0
    chunks: list = field(default_factory=list)


def fill(source, query, sink, kinds, keep: bool = False) -> PointPass:
    """Run one point pass of ``source`` into fresh canvases of
    ``kinds`` laid out by ``sink``."""
    paged0 = source.paged
    result = PointPass(new_canvases(source, query, kinds, sink.size))
    columns = source.pixel_columns(sink.viewport)
    for table, rows in source.chunks(query, sink.boxes):
        rows, pix, values = project(table, rows, query, sink, columns)
        fold(result.canvases, pix, values)
        result.points += len(pix)
        if keep:
            result.chunks.append((table, rows, pix, values))
    result.paged = source.paged - paged0
    return result


def refill(chunks: list, source, query, kinds, size: int) -> dict:
    """Fold already-projected chunks with ``query``'s values: one
    filter → project pass feeding several canvas sets."""
    canvases = new_canvases(source, query, kinds, size)
    for table, rows, pix, _ in chunks:
        fold(canvases, pix, _values(table, rows, query))
    return canvases
