"""One-pass region x time aggregation (the timeline heat matrix).

Urbane's timeline view, crossed with the map: an aggregate per (region,
time bucket) pair, e.g. taxi pickups per neighborhood per day.  Issuing
one raster join per bucket would re-render the points T times; instead
the raster join's labeling by-product is reused — rasterizing a region
*partition* yields a pixel -> region map, each point inherits its
pixel's label in O(1), and one ``bincount`` over (region, bucket) pairs
produces the whole matrix.

Like the bounded raster join, labels are pixel-center approximations
with the same one-pixel-diagonal guarantee; regions are assumed to be a
partition (later region ids win on painted overlap).
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from ..errors import QueryError
from ..raster import FragmentTable, Viewport, build_fragment_table
from ..table import PointTable, combine_filters
from .regions import RegionSet


def pixel_region_labels(fragments: FragmentTable) -> np.ndarray:
    """Flat pixel -> region id map (-1 = no region) painted from a
    fragment table's runs: covered, then FULL (interior claims win where
    they disagree), each in polygon order (later regions win overlaps)."""
    labels = np.full(fragments.viewport.num_pixels, -1, dtype=np.int32)
    labels[fragments.covered_boundary_pixels] = (
        fragments.covered_boundary_polys)
    labels[fragments.interior_pixels] = fragments.interior_polys
    return labels


@dataclass
class RegionTimeMatrix:
    """Aggregate values per (region, time bucket)."""

    regions: RegionSet
    bucket_starts: np.ndarray   # (T,) epoch seconds
    values: np.ndarray          # (R, T)
    bucket_seconds: int
    stats: dict

    @property
    def num_buckets(self) -> int:
        return len(self.bucket_starts)

    def series_for(self, region_name: str) -> np.ndarray:
        """One region's time series."""
        return self.values[self.regions.id_of(region_name)]

    def totals_per_region(self) -> np.ndarray:
        return self.values.sum(axis=1)

    def totals_per_bucket(self) -> np.ndarray:
        return self.values.sum(axis=0)

    def peak_bucket(self, region_name: str) -> tuple[int, float]:
        """(bucket start, value) of a region's busiest bucket."""
        series = self.series_for(region_name)
        i = int(np.argmax(series))
        return int(self.bucket_starts[i]), float(series[i])

    def fold_weekly(self) -> "RegionTimeMatrix":
        """Fold the timeline onto one week (the *rhythm* of each region).

        Buckets at the same offset within the week are summed, turning a
        months-long series into a 7-day profile — daily noise averages
        out and what remains is when each region lives (commuter peaks,
        nightlife, weekend patterns).  Requires the bucket length to
        divide one week.
        """
        week = 7 * 86_400
        if week % self.bucket_seconds != 0:
            raise QueryError(
                f"bucket of {self.bucket_seconds}s does not divide a week")
        per_week = week // self.bucket_seconds
        offsets = (self.bucket_starts // self.bucket_seconds) % per_week
        folded = np.zeros((self.values.shape[0], per_week))
        np.add.at(folded.T, offsets, self.values.T)
        starts = np.arange(per_week, dtype=np.int64) * self.bucket_seconds
        return RegionTimeMatrix(
            regions=self.regions,
            bucket_starts=starts,
            values=folded,
            bucket_seconds=self.bucket_seconds,
            stats=dict(self.stats, folded_weekly=True),
        )

    def normalized_per_region(self) -> np.ndarray:
        """Each row scaled to its own max (rhythm comparison across
        regions of different volume); all-zero rows stay zero."""
        peak = self.values.max(axis=1, keepdims=True)
        out = np.divide(self.values, peak, where=peak > 0,
                        out=np.zeros_like(self.values))
        return out


def region_time_matrix(
    table: PointTable,
    regions: RegionSet,
    viewport: Viewport,
    time_column: str = "t",
    bucket_seconds: int = 86_400,
    filters=(),
    value_column: str | None = None,
    fragments: FragmentTable | None = None,
) -> RegionTimeMatrix:
    """Compute the (region, time bucket) matrix in one labeling pass.

    ``value_column`` switches the measure from counts to per-bucket
    sums of that column.
    """
    if bucket_seconds < 1:
        raise QueryError("bucket_seconds must be >= 1")
    t0 = time.perf_counter()
    if fragments is None:
        fragments = build_fragment_table(list(regions.geometries), viewport)
    labels = pixel_region_labels(fragments)

    mask = combine_filters(list(filters)).mask(table)
    x = table.x[mask]
    y = table.y[mask]
    tvals = table.column(time_column).values[mask]
    weights = None
    if value_column is not None:
        weights = table.column(value_column).values[mask].astype(np.float64)

    pixel_ids, valid = viewport.pixel_ids_of(x, y)
    point_regions = labels[pixel_ids[valid]]
    tvals = tvals[valid]
    if weights is not None:
        weights = weights[valid]

    inside = point_regions >= 0
    point_regions = point_regions[inside].astype(np.int64)
    tvals = tvals[inside]
    if weights is not None:
        weights = weights[inside]

    if len(tvals):
        origin = int(tvals.min()) // bucket_seconds * bucket_seconds
        buckets = (tvals - origin) // bucket_seconds
        num_buckets = int(buckets.max()) + 1
    else:
        origin = 0
        buckets = np.zeros(0, dtype=np.int64)
        num_buckets = 1

    linear = point_regions * num_buckets + buckets
    size = len(regions) * num_buckets
    matrix = np.bincount(linear, weights=weights, minlength=size).reshape(
        len(regions), num_buckets).astype(np.float64)

    starts = origin + np.arange(num_buckets, dtype=np.int64) * bucket_seconds
    return RegionTimeMatrix(
        regions=regions,
        bucket_starts=starts,
        values=matrix,
        bucket_seconds=int(bucket_seconds),
        stats={
            "points_labeled": int(inside.sum()),
            "points_after_filter": int(mask.sum()),
            "time_total_s": time.perf_counter() - t0,
            "epsilon_world_units": viewport.pixel_diag,
        },
    )
