"""The point pipeline: source → project → fold → sink.

Every raster join starts with the same point pass — Urbane's "draw the
filtered points with blending" — and this module is its only copy.

* A **source** yields row-ordered chunks of filter-surviving rows and
  checks ``cancel`` before each one.  :class:`TableSource` is an
  in-memory table, one chunk; :class:`DatasetSource` is a store's pruned
  partitions in manifest order, each mounted only when it can reach the
  sink.
* :func:`project` maps a chunk's rows to the sink's pixel ids and
  gathers their values.
* :func:`fold` continues each canvas's element-sequential accumulation
  with one chunk.
* A **sink** is where the pixels live: a :class:`Window` of a viewport
  (the whole canvas, or one tile) or a list of pyramid :class:`Blocks`.

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
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .. import kernels
from ..errors import QueryCancelled
from ..index import PointGridIndex
from ..obs.trace import span
from .cache import fingerprint

#: Canvas fill where no point landed, per kind.
FILLS = {"count": 0.0, "sum": 0.0, "mass": 0.0,
         "min": np.inf, "max": -np.inf}


def _check(cancel) -> None:
    if cancel is not None and cancel.is_set():
        raise QueryCancelled("point pass cancelled between chunks")


def _survivors(table, query, mask=None):
    """Ascending ids of the rows passing ``query``'s filters; None when
    there are no filters (every row survives)."""
    if not query.filters:
        return None
    if mask is None:
        mask = query.filter_mask(table)
    return np.flatnonzero(mask)


# -- sources -----------------------------------------------------------------


class TableSource:
    """An in-memory table: one chunk, in row order.

    With an execution context the filter mask and the point grid index
    come from its cache, shared across gestures; without one each is
    built at most once per source.  When a sink passes boxes the rows
    are narrowed through the grid index, so a few pyramid blocks or one
    tile never touch the whole table.
    """

    def __init__(self, table, ctx=None, cancel=None):
        self.table = table
        self.ctx = ctx
        self.cancel = cancel
        self.paged = 0
        self._masks: dict = {}
        self._index = None

    def span(self):
        return span("scatter")

    def mask(self, query):
        """The query's filter mask over the whole table, or None."""
        if not query.filters:
            return None
        if self.ctx is None:
            key = repr(query.filters)
            if key not in self._masks:
                self._masks[key] = query.filter_mask(self.table)
            return self._masks[key]
        key = ("filter-mask", fingerprint(self.table), repr(query.filters))
        return self.ctx.cache.get_or_build(
            key, lambda: query.filter_mask(self.table))

    def filtered_count(self, query) -> int:
        mask = self.mask(query)
        return len(self.table) if mask is None else int(
            np.count_nonzero(mask))

    def nonnegative(self, query) -> bool:
        """Every value is >= 0 and not NaN, so ``|v| == v``."""
        values = query.values_for(self.table)
        return not len(values) or bool(values.min() >= 0)

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

        if self.ctx is None:
            return probe()
        key = ("column-integral", fingerprint(self.table), column)
        return bool(self.ctx.cache.get_or_build(key, probe))

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
        mask = self.mask(query)
        if boxes is None or not len(self.table):
            yield self.table, _survivors(self.table, query, mask)
            return
        index = self._grid_index()
        rows = np.sort(np.concatenate([index.query_bbox(b) for b in boxes]))
        if len(boxes) > 1:  # overlapping boxes share grid cells
            rows = rows[np.diff(rows, prepend=-1) != 0]
        yield self.table, rows if mask is None else rows[mask[rows]]


class DatasetSource:
    """A store's pruned partitions, in manifest order.

    A partition is mounted only when its bbox meets one of the sink's
    boxes.  Its filter survivors are counted once however many tiles
    page it, so ``filtered_count`` is over the partitions actually read.
    """

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
            rows = _survivors(table, query)
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
    superset of every point the transform maps into it)."""

    def __init__(self, viewport, tile=None):
        self.viewport = viewport
        self.boxes = None
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
        ix, iy = self.viewport.pixel_of(x, y)
        if self.col0 or self.row0:
            ix = ix - self.col0
            iy = iy - self.row0
        inside = (ix >= 0) & (ix < self.width) & (iy >= 0) & (iy < self.height)
        return iy * self.width + ix, inside


class Blocks:
    """Pyramid blocks ``(bx, by)`` at one grid level, laid out as one
    ``block²`` slab each in a flat canvas."""

    def __init__(self, grid, level: int, blocks: list[tuple[int, int]]):
        self.grid = grid
        self.level = level
        self.size = len(blocks) * grid.block * grid.block
        self.boxes = [grid.block_bbox(level, bx, by) for bx, by in blocks]
        bxs = np.array([b[0] for b in blocks], dtype=np.int64)
        bys = np.array([b[1] for b in blocks], dtype=np.int64)
        self.bx0, self.by0 = int(bxs.min()), int(bys.min())
        # Slot of each block in the flat canvas; -1 elsewhere.
        self.slot_of = np.full((int(bys.max()) - self.by0 + 1,
                                int(bxs.max()) - self.bx0 + 1), -1,
                               dtype=np.int64)
        self.slot_of[bys - self.by0, bxs - self.bx0] = np.arange(len(blocks))

    def locate(self, x, y) -> tuple[np.ndarray, np.ndarray]:
        side = self.grid.block
        px, py = self.grid.level_pixel(x, y, self.level)
        cx = px // side - self.bx0
        cy = py // side - self.by0
        rows, cols = self.slot_of.shape
        slot = np.full(len(px), -1, dtype=np.int64)
        ok = (cx >= 0) & (cx < cols) & (cy >= 0) & (cy < rows)
        slot[ok] = self.slot_of[cy[ok], cx[ok]]
        return slot * side * side + (py % side) * side + px % side, slot >= 0

    def plane(self, canvas: np.ndarray, slot: int) -> np.ndarray:
        """A copy of one block's ``(block, block)`` plane."""
        side = self.grid.block
        num = side * side
        return canvas[slot * num:(slot + 1) * num].reshape(side, side).copy()


# -- project, fold, fill -----------------------------------------------------


def project(table, rows, query, sink):
    """Filter survivors → ``(rows, pixel ids, values)`` of the points
    inside ``sink``, in row order (``rows`` None: every row of
    ``table``)."""
    if rows is None:
        x, y = table.x, table.y
    else:
        x, y = table.x[rows], table.y[rows]
    pix, inside = sink.locate(x, y)
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
    for table, rows in source.chunks(query, sink.boxes):
        rows, pix, values = project(table, rows, query, sink)
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
