"""Append-only point streams with incremental raster-join state.

The demo's motivation includes *social sensors* — feeds that keep
arriving while the analyst explores.  A :class:`PointStream` accepts
batches of new points (same schema, non-decreasing timestamps, like any
event log) and maintains, incrementally per batch:

* the consolidated columnar table (chunk list, consolidated lazily);
* each point's pixel id under a fixed registered viewport;
* each point's region label (pixel -> region, the raster join's
  labeling by-product), and from it a running region x time-bucket
  count matrix — so the "what is happening right now, where" view is
  O(1) to read at any moment.

Ad-hoc filtered queries still need the raw points; time windows are
served by binary search over the (sorted) timestamps, so a sliding
window query costs O(window), not O(history).
"""

from __future__ import annotations

import time
from pathlib import Path

import numpy as np

from ..core.context import ExecutionContext
from ..core.heatmatrix import RegionTimeMatrix, pixel_region_labels
from ..core.regions import RegionSet
from ..errors import QueryError, SchemaError
from ..raster import FragmentTable, Viewport, build_fragment_table
from ..table import PointTable


class PointStream:
    """An append-only spatio-temporal point stream over a region set.

    Pass the engine's ``context`` to share the unified execution cache:
    the polygon raster for (regions, viewport) is then fetched from —
    or left behind for — the interactive query path instead of being
    built twice.
    """

    def __init__(self, regions: RegionSet, resolution: int = 512,
                 time_column: str = "t", bucket_seconds: int = 3_600,
                 origin: int | None = None,
                 context: ExecutionContext | None = None):
        if bucket_seconds < 1:
            raise QueryError("bucket_seconds must be >= 1")
        self.regions = regions
        self.time_column = time_column
        self.bucket_seconds = int(bucket_seconds)
        self.viewport: Viewport = Viewport.fit(regions.bbox, resolution)
        if context is not None:
            self.fragments: FragmentTable = context.fragments_for(
                regions, self.viewport)
        else:
            self.fragments = build_fragment_table(
                list(regions.geometries), self.viewport)
        self._labels = pixel_region_labels(self.fragments)

        self._chunks: list[PointTable] = []
        self._consolidated: PointTable | None = None
        self._last_timestamp: int | None = None
        #: Monotone append count; the serving layer stamps it into
        #: response stats so a client can tell which snapshot of a live
        #: stream answered its query.
        self._version = 0
        self._origin = origin
        # Running (region, bucket) counts; grown as time advances.
        self._matrix = np.zeros((len(regions), 0), dtype=np.float64)
        self._append_seconds = 0.0
        # Temporal canvas cubes kept live across appends, keyed by value
        # column (None = count-only).  Event-log order means new points
        # only ever land in the tail bucket onward, so each batch is an
        # O(batch + pixels) prefix update instead of a rebuild.
        self._tcubes: dict[str | None, "TemporalCanvasCube"] = {}

    # -- ingestion ----------------------------------------------------------

    def append(self, batch: PointTable) -> dict:
        """Ingest one batch; returns per-batch ingestion statistics.

        Batches must share the schema of earlier batches and arrive in
        event-log order: the batch's timestamps are sorted and must not
        precede the last ingested timestamp.
        """
        t0 = time.perf_counter()
        if len(batch) == 0:
            return {"rows": 0, "time_append_s": 0.0}
        tvals = batch.column(self.time_column).values
        if len(tvals) > 1 and (np.diff(tvals) < 0).any():
            raise QueryError("batch timestamps must be non-decreasing")
        if self._last_timestamp is not None and int(tvals[0]) < \
                self._last_timestamp:
            raise QueryError(
                f"batch starts at {int(tvals[0])}, before the last "
                f"ingested timestamp {self._last_timestamp}")
        if self._chunks and batch.column_names != \
                self._chunks[0].column_names:
            raise SchemaError(
                f"batch schema {batch.column_names} does not match the "
                f"stream's {self._chunks[0].column_names}")

        # Incremental labeling: pixel -> region for the new points only.
        pixel_ids, valid = self.viewport.pixel_ids_of(batch.x, batch.y)
        labels = np.where(valid, self._labels[pixel_ids], -1)

        if self._origin is None:
            self._origin = (int(tvals[0]) // self.bucket_seconds
                            * self.bucket_seconds)
        buckets = (tvals - self._origin) // self.bucket_seconds
        inside = labels >= 0
        if inside.any():
            max_bucket = int(buckets[inside].max())
            self._grow_matrix(max_bucket + 1)
            np.add.at(self._matrix,
                      (labels[inside].astype(np.int64),
                       buckets[inside].astype(np.int64)), 1.0)

        for cube in self._tcubes.values():
            values = None
            if cube.value_column is not None:
                values = batch.column(cube.value_column).values.astype(
                    np.float64, copy=False)[valid]
            cube.append(pixel_ids[valid], tvals[valid], values=values,
                        all_in_viewport=bool(valid.all()))

        self._chunks.append(batch)
        self._consolidated = None
        self._last_timestamp = int(tvals[-1])
        self._version += 1
        elapsed = time.perf_counter() - t0
        self._append_seconds += elapsed
        return {
            "rows": len(batch),
            "rows_in_regions": int(inside.sum()),
            "time_append_s": elapsed,
        }

    def _grow_matrix(self, num_buckets: int) -> None:
        if num_buckets <= self._matrix.shape[1]:
            return
        grown = np.zeros((len(self.regions), num_buckets))
        grown[:, :self._matrix.shape[1]] = self._matrix
        self._matrix = grown

    # -- state access -----------------------------------------------------------

    def __len__(self) -> int:
        return sum(len(c) for c in self._chunks)

    @property
    def last_timestamp(self) -> int | None:
        return self._last_timestamp

    @property
    def version(self) -> int:
        """Number of batches ingested so far (snapshot identifier).

        Consolidation produces a fresh table object per version, so a
        query served at version N caches — and coalesces — under keys
        that stop matching the moment version N+1 lands.
        """
        return self._version

    def table(self) -> PointTable:
        """The consolidated stream contents (cached between appends)."""
        if not self._chunks:
            raise QueryError("stream is empty")
        if self._consolidated is None:
            if len(self._chunks) == 1:
                self._consolidated = self._chunks[0]
            else:
                self._consolidated = PointTable.concat(self._chunks,
                                                       name="stream")
                self._chunks = [self._consolidated]
        return self._consolidated

    def window_table(self, start: int, end: int) -> PointTable:
        """Rows with ``start <= t < end`` (binary search, O(window))."""
        if end <= start:
            raise QueryError(f"empty window [{start}, {end})")
        table = self.table()
        tvals = table.column(self.time_column).values
        lo = int(np.searchsorted(tvals, start, side="left"))
        hi = int(np.searchsorted(tvals, end, side="left"))
        return table.take(np.arange(lo, hi))

    def spill(self, dataset_dir, before: int | None = None,
              **writer_kwargs) -> dict:
        """Flush the buffer's settled head into an on-disk store.

        Rows with ``t < before`` move to the partitioned store at
        ``dataset_dir`` (created on the first spill, appended to on
        later ones); the live buffer keeps only the tail.  ``before``
        defaults to the start of the bucket holding the last ingested
        timestamp, so the still-open bucket stays resident and every
        closed bucket goes out of core.  Spilled partitions inherit the
        stream's time column and bucket width, so the store prunes on
        the same temporal grid the stream brushes on.

        The running aggregates (:meth:`matrix` and live :meth:`tcube`
        cubes) are incremental accumulations over the full history and
        keep answering for spilled rows; only raw-row access
        (:meth:`table`, :meth:`window_table`) narrows to the retained
        tail.  Open the store as a :class:`repro.store.Dataset` to
        query the spilled history.
        """
        from ..store.format import read_manifest
        from ..store.writer import DatasetWriter

        path = Path(dataset_dir)
        if before is None:
            if self._last_timestamp is None:
                before = 0
            else:
                origin = self._origin or 0
                before = origin + ((self._last_timestamp - origin)
                                   // self.bucket_seconds
                                   * self.bucket_seconds)
        before = int(before)
        rows = len(self)
        cut = 0
        if rows:
            table = self.table()
            tvals = table.column(self.time_column).values
            cut = int(np.searchsorted(tvals, before, side="left"))
        if cut == 0:
            return {"rows_spilled": 0, "rows_retained": rows,
                    "before": before, "path": str(path)}

        writer_kwargs.setdefault("time_column", self.time_column)
        writer_kwargs.setdefault("time_bucket_seconds",
                                 self.bucket_seconds)
        # A fixed grid bbox keeps partition keys stable across spills
        # even though each spill sees a different slice of the data.
        writer_kwargs.setdefault("grid_bbox", self.regions.bbox)
        append = (path / "manifest.json").exists()
        with DatasetWriter(path, append=append, **writer_kwargs) as writer:
            writer.add_chunk(table.take(np.arange(cut)))

        if cut == rows:
            self._chunks = []
            self._consolidated = None
        else:
            tail = table.take(np.arange(cut, rows))
            self._chunks = [tail]
            self._consolidated = tail
        self._version += 1
        manifest = read_manifest(path)
        return {"rows_spilled": cut, "rows_retained": rows - cut,
                "before": before, "path": str(path),
                "store_partitions": len(manifest.partitions)}

    def tcube(self, value_column: str | None = None):
        """The stream's live temporal canvas cube (built on first use).

        Built once from the consolidated history, then kept current by
        :meth:`append` via tail-bucket prefix updates — so interactive
        brushes over a running stream never pay a re-scatter.
        """
        from ..core.tcube import build_temporal_canvas_cube

        cube = self._tcubes.get(value_column)
        if cube is None:
            cube = build_temporal_canvas_cube(
                self.table(), self.viewport, self.time_column,
                self.bucket_seconds, value_column=value_column,
                origin=self._origin)
            self._tcubes[value_column] = cube
        return cube

    def brush(self, start: int, end: int, agg: str = "count",
              value_column: str | None = None):
        """Bounded aggregation over ``[start, end)`` from the live cube.

        ``start``/``end`` must align to the stream's bucket grid (or
        clamp outside it); the answer is bitwise-identical to running
        the bounded raster join over :meth:`window_table`.
        """
        from ..core.query import SpatialAggregation
        from ..table import TimeRange

        query = SpatialAggregation(
            agg, value_column, (TimeRange(self.time_column, start, end),))
        cube = self.tcube(value_column)
        if not cube.can_answer(query, self.viewport):
            raise QueryError(
                f"brush [{start}, {end}) does not align to the stream's "
                f"{self.bucket_seconds}s buckets (origin {cube.origin})")
        return cube.answer(self.regions, self.fragments, query)

    def matrix(self) -> RegionTimeMatrix:
        """The running region x time count matrix (O(1) snapshot)."""
        num_buckets = max(1, self._matrix.shape[1])
        self._grow_matrix(num_buckets)
        starts = (self._origin or 0) + np.arange(
            num_buckets, dtype=np.int64) * self.bucket_seconds
        return RegionTimeMatrix(
            regions=self.regions,
            bucket_starts=starts,
            values=self._matrix.copy(),
            bucket_seconds=self.bucket_seconds,
            stats={"rows_ingested": len(self),
                   "time_append_total_s": self._append_seconds},
        )

    def hot_regions(self, window_buckets: int = 1, history_buckets: int = 24,
                    min_rate: float = 2.0) -> list[tuple[str, float]]:
        """Regions whose recent activity outruns their own history.

        Compares the mean count of the last ``window_buckets`` buckets
        against the mean of the preceding ``history_buckets``; returns
        (region name, burst ratio) for regions at or above ``min_rate``,
        hottest first.  This is the stream-monitoring gadget Urbane's
        social-feed layer motivates.
        """
        total = self._matrix.shape[1]
        if total < window_buckets + 1:
            return []
        recent = self._matrix[:, total - window_buckets:].mean(axis=1)
        lo = max(0, total - window_buckets - history_buckets)
        base = self._matrix[:, lo:total - window_buckets]
        if base.shape[1] == 0:
            return []
        baseline = base.mean(axis=1)
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = recent / baseline
        ratio[baseline == 0] = np.where(recent[baseline == 0] > 0,
                                        np.inf, 0.0)
        hot = [(self.regions.region_names[i], float(ratio[i]))
               for i in np.argsort(ratio)[::-1]
               if ratio[i] >= min_rate and recent[i] > 0]
        return hot
