"""The timeline view.

Urbane's temporal companion to the map: event volume over time, for the
whole city or one selected region, at an hour/day/week granularity.
Brushing a range on this view produces the :class:`TimeRange` filters
the other views re-query with.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import QueryError
from ..table import PointTable, TimeRange, combine_filters
from .datamanager import DataManager

_BUCKETS = {"hour": 3_600, "day": 86_400, "week": 7 * 86_400}


@dataclass
class TimeSeries:
    """Evenly bucketed event counts (or value sums) over time."""

    bucket_starts: np.ndarray  # epoch seconds, one per bucket
    values: np.ndarray
    bucket_seconds: int
    label: str = ""

    def __len__(self) -> int:
        return len(self.values)

    @property
    def total(self) -> float:
        return float(self.values.sum())

    def peak(self) -> tuple[int, float]:
        """(bucket start, value) of the maximum bucket."""
        if len(self.values) == 0:
            raise QueryError("an empty series has no peak")
        i = int(np.argmax(self.values))
        return int(self.bucket_starts[i]), float(self.values[i])

    def smoothed(self, window: int = 3) -> np.ndarray:
        """Centered moving average (edge-shrunk), for display."""
        if window < 1:
            raise QueryError("window must be >= 1")
        if window == 1 or len(self.values) == 0:
            return self.values.copy()
        kernel = np.ones(window) / window
        return np.convolve(self.values, kernel, mode="same")

    def brush(self, start_bucket: int, end_bucket: int,
              time_column: str = "t") -> TimeRange:
        """The TimeRange filter selecting buckets [start, end)."""
        if not (0 <= start_bucket < end_bucket <= len(self)):
            raise QueryError(
                f"brush [{start_bucket}, {end_bucket}) out of range "
                f"0..{len(self)}")
        t0 = int(self.bucket_starts[start_bucket])
        t1 = int(self.bucket_starts[end_bucket - 1]) + self.bucket_seconds
        return TimeRange(time_column, t0, t1)

    def sparkline(self, width: int = 60) -> str:
        """Unicode sparkline for terminal output."""
        glyphs = "▁▂▃▄▅▆▇█"
        if len(self.values) == 0:
            return ""
        vals = self.values
        if len(vals) > width:
            # Block-average down to the width budget (vectorized:
            # segment sums via reduceat over the edge offsets).
            edges = np.linspace(0, len(vals), width + 1).astype(int)
            sums = np.add.reduceat(vals, edges[:-1])
            counts = np.diff(edges)
            vals = np.where(counts > 0,
                            sums / np.maximum(counts, 1), 0.0)
        hi = vals.max()
        if hi <= 0:
            return glyphs[0] * len(vals)
        idx = np.minimum((vals / hi * (len(glyphs) - 1) + 0.5).astype(int),
                         len(glyphs) - 1)
        return "".join(glyphs[i] for i in idx)


class TimelineView:
    """Builds time series over registered data sets."""

    def __init__(self, manager: DataManager):
        self.manager = manager

    def matrix(self, dataset: str, region_set: str, bucket: str = "day",
               time_column: str = "t", filters=(),
               value_column: str | None = None, resolution: int = 512):
        """The region x time heat matrix (one labeling pass).

        Returns a :class:`repro.core.RegionTimeMatrix`; the per-region
        rows are what the UI draws as small-multiple sparklines.
        """
        from ..core.heatmatrix import region_time_matrix
        from ..raster import Viewport

        if bucket not in _BUCKETS:
            raise QueryError(
                f"unknown bucket {bucket!r}; expected one of "
                f"{sorted(_BUCKETS)}")
        table = self.manager.dataset(dataset)
        regions = self.manager.region_set(region_set)
        viewport = Viewport.fit(regions.bbox, resolution)
        fragments = self.manager.engine.fragments_for(regions, viewport)
        return region_time_matrix(
            table, regions, viewport, time_column=time_column,
            bucket_seconds=_BUCKETS[bucket], filters=filters,
            value_column=value_column, fragments=fragments)

    def series(
        self,
        dataset: str,
        bucket: str = "day",
        time_column: str = "t",
        region_set: str | None = None,
        region_name: str | None = None,
        filters=(),
        value_column: str | None = None,
    ) -> TimeSeries:
        """Bucketed series, optionally restricted to one region.

        With ``value_column`` the series holds per-bucket sums of that
        column instead of counts.
        """
        if bucket not in _BUCKETS:
            raise QueryError(
                f"unknown bucket {bucket!r}; expected one of "
                f"{sorted(_BUCKETS)}")
        bucket_s = _BUCKETS[bucket]
        table: PointTable = self.manager.dataset(dataset)
        label = f"{dataset}/{bucket}"
        mask = combine_filters(list(filters)).mask(table)

        if region_name is not None:
            if region_set is None:
                raise QueryError("region_name requires region_set")
            regions = self.manager.region_set(region_set)
            mask = mask & self._inside_mask(table, regions, region_name)

        tvals = table.column(time_column).values[mask]
        if len(tvals) == 0:
            return TimeSeries(np.empty(0, dtype=np.int64),
                              np.empty(0), bucket_s, label)
        origin = int(tvals.min()) // bucket_s * bucket_s
        idx = (tvals - origin) // bucket_s
        nbuckets = int(idx.max()) + 1
        if value_column is not None:
            weights = table.column(value_column).values[mask].astype(
                np.float64)
            values = np.bincount(idx, weights=weights, minlength=nbuckets)
        else:
            values = np.bincount(idx, minlength=nbuckets).astype(np.float64)
        starts = origin + np.arange(nbuckets, dtype=np.int64) * bucket_s
        return TimeSeries(starts, values, bucket_s, label)

    def _inside_mask(self, table, regions, region_name) -> np.ndarray:
        """Point-in-region mask, cached in the engine's unified cache.

        Keyed by (table, region set, region id) only — no filters — so
        every filter combination brushed over the same region reuses one
        point-in-polygon pass.
        """
        from ..core.cache import fingerprint

        gid = regions.id_of(region_name)
        ctx = self.manager.engine.ctx
        key = ("inside-mask", fingerprint(table), fingerprint(regions),
               int(gid))

        def build() -> np.ndarray:
            geom = regions[gid]
            inside = np.zeros(len(table), dtype=bool)
            cand = np.flatnonzero(geom.bbox.contains_points(table.xy))
            if len(cand):
                inside[cand] = geom.contains_points(table.xy[cand])
            return inside

        return ctx.cache.get_or_build(key, build)
