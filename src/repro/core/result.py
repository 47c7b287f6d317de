"""Query results.

Every backend returns an :class:`AggregationResult`: per-region values
aligned with the region set, optional guaranteed error bounds (bounded
raster join only), and execution statistics for the benchmark harness.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .regions import RegionSet


@dataclass
class AggregationResult:
    """Per-region aggregate values plus provenance."""

    regions: RegionSet
    values: np.ndarray
    method: str
    lower: np.ndarray | None = None
    upper: np.ndarray | None = None
    exact: bool = False
    stats: dict = field(default_factory=dict)

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if len(self.values) != len(self.regions):
            raise ValueError(
                f"{len(self.values)} values for {len(self.regions)} regions")

    def __len__(self) -> int:
        return len(self.values)

    def shared(self, stats: dict) -> "AggregationResult":
        """A new result over this one's arrays, frozen in place
        (``writeable=False``), with ``stats`` as its own dict: an answer
        cached or fanned out to many callers is shared without a copy,
        and no caller can write into another's."""
        for arr in (self.values, self.lower, self.upper):
            if arr is not None:
                arr.flags.writeable = False
        return AggregationResult(
            regions=self.regions, values=self.values, method=self.method,
            lower=self.lower, upper=self.upper, exact=self.exact,
            stats=stats)

    def value_of(self, region_name: str) -> float:
        """Aggregate value of one region, by name."""
        return float(self.values[self.regions.id_of(region_name)])

    @property
    def has_bounds(self) -> bool:
        return self.lower is not None and self.upper is not None

    def max_bound_width(self) -> float:
        """Widest guaranteed error interval across regions (0 if exact)."""
        if not self.has_bounds:
            return 0.0 if self.exact else float("nan")
        return float((self.upper - self.lower).max(initial=0.0))

    def top_k(self, k: int) -> list[tuple[str, float]]:
        """The k regions with the largest values (NaNs last)."""
        order = np.argsort(np.nan_to_num(self.values, nan=-np.inf))[::-1]
        return [(self.regions.region_names[i], float(self.values[i]))
                for i in order[:k]]

    def as_dict(self) -> dict[str, float]:
        """Region name -> value mapping."""
        return {n: float(v)
                for n, v in zip(self.regions.region_names, self.values)}

    def compare_to(self, reference: "AggregationResult") -> dict:
        """Error metrics of this result against an exact reference.

        Returns max/mean absolute error and max relative error (relative
        to the reference value, skipping zero-reference regions).
        """
        ref = np.asarray(reference.values, dtype=np.float64)
        got = self.values
        both = np.isfinite(ref) & np.isfinite(got)
        abs_err = np.abs(got[both] - ref[both])
        nz = both & (np.abs(ref) > 0)
        rel_err = (np.abs(got[nz] - ref[nz]) / np.abs(ref[nz])
                   if nz.any() else np.zeros(1))
        return {
            "max_abs_error": float(abs_err.max(initial=0.0)),
            "mean_abs_error": float(abs_err.mean()) if len(abs_err) else 0.0,
            "max_rel_error": float(rel_err.max(initial=0.0)),
            "regions_compared": int(both.sum()),
        }

    def bounds_contain(self, reference: "AggregationResult") -> bool:
        """True when every reference value lies within [lower, upper].

        The correctness property the bounded raster join guarantees.
        """
        if not self.has_bounds:
            return False
        ref = np.asarray(reference.values, dtype=np.float64)
        ok = np.isfinite(ref)
        return bool(
            ((ref[ok] >= self.lower[ok] - 1e-9)
             & (ref[ok] <= self.upper[ok] + 1e-9)).all())
