"""Aggregate functions of the spatial aggregation query.

The query's ``AGG`` is one of COUNT / SUM / AVG / MIN / MAX.  Each
aggregate is described by how it is computed from blended canvases and
how partial results (raster interior pass + exact boundary pass, or
per-tile results) merge — the merge rules are what make the accurate
variant and the tiled executor compositional.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import QueryError

COUNT = "count"
SUM = "sum"
AVG = "avg"
MIN = "min"
MAX = "max"

SUPPORTED_AGGREGATES = (COUNT, SUM, AVG, MIN, MAX)

# Aggregates whose bounded-variant error can be bounded a posteriori from
# boundary-pixel mass (additive aggregates).
BOUNDABLE_AGGREGATES = (COUNT, SUM)


def canvas_kinds(agg: str, with_mass: bool = True) -> tuple[str, ...]:
    """The canvas kinds a point pass must produce for ``agg``.

    With ``with_mass`` SUM carries ``mass`` (the ``|v|`` scatter feeding
    the boundary bounds) as a first-class kind; callers that can prove
    the values non-negative pass ``False`` and reuse the sum canvas.
    """
    if agg not in SUPPORTED_AGGREGATES:
        raise ValueError(f"unsupported aggregate {agg!r}")
    kinds = []
    if agg in (COUNT, AVG):
        kinds.append("count")
    if agg in (SUM, AVG):
        kinds.append("sum")
    if agg in (MIN, MAX):
        kinds.append(agg)
    if with_mass and agg == SUM:
        kinds.append("mass")
    return tuple(kinds)


def validate_aggregate(agg: str, value_column: str | None) -> None:
    """Check the aggregate name / value-column combination."""
    if agg not in SUPPORTED_AGGREGATES:
        raise QueryError(
            f"unsupported aggregate {agg!r}; expected one of "
            f"{SUPPORTED_AGGREGATES}"
        )
    if agg == COUNT and value_column is not None:
        raise QueryError("COUNT takes no value column")
    if agg != COUNT and value_column is None:
        raise QueryError(f"{agg.upper()} needs a value column")


@dataclass
class PartialAggregate:
    """Mergeable per-region partial state.

    ``sums``/``counts`` serve COUNT, SUM and AVG; ``mins``/``maxs`` serve
    MIN and MAX.  Only the fields the aggregate needs are populated.
    """

    agg: str
    counts: np.ndarray | None = None
    sums: np.ndarray | None = None
    mins: np.ndarray | None = None
    maxs: np.ndarray | None = None

    @classmethod
    def empty(cls, agg: str, num_regions: int) -> "PartialAggregate":
        part = cls(agg=agg)
        if agg in (COUNT, AVG):
            part.counts = np.zeros(num_regions, dtype=np.float64)
        if agg in (SUM, AVG):
            part.sums = np.zeros(num_regions, dtype=np.float64)
        if agg == MIN:
            part.mins = np.full(num_regions, np.inf, dtype=np.float64)
        if agg == MAX:
            part.maxs = np.full(num_regions, -np.inf, dtype=np.float64)
        return part

    def merge(self, other: "PartialAggregate") -> "PartialAggregate":
        """In-place merge of another partial into this one."""
        if other.agg != self.agg:
            raise QueryError(
                f"cannot merge partials of {self.agg!r} and {other.agg!r}")
        if self.counts is not None:
            self.counts += other.counts
        if self.sums is not None:
            self.sums += other.sums
        if self.mins is not None:
            np.minimum(self.mins, other.mins, out=self.mins)
        if self.maxs is not None:
            np.maximum(self.maxs, other.maxs, out=self.maxs)
        return self

    def finalize(self) -> np.ndarray:
        """The per-region aggregate values.

        Empty regions yield 0 for COUNT/SUM and NaN for AVG/MIN/MAX
        (SQL's NULL analog).
        """
        if self.agg == COUNT:
            return self.counts.copy()
        if self.agg == SUM:
            return self.sums.copy()
        if self.agg == AVG:
            with np.errstate(divide="ignore", invalid="ignore"):
                out = self.sums / self.counts
            out[self.counts == 0] = np.nan
            return out
        if self.agg == MIN:
            out = self.mins.copy()
            out[~np.isfinite(out)] = np.nan
            return out
        out = self.maxs.copy()
        out[~np.isfinite(out)] = np.nan
        return out


def accumulate_exact(part: PartialAggregate, region_id: int,
                     values: np.ndarray | None, count: int) -> None:
    """Fold exactly-tested points of one region into a partial.

    ``values`` is the value column of the matching points (None for
    COUNT); ``count`` is how many matched.  MIN/MAX fold with
    ``np.minimum``/``np.maximum``, so a NaN poisons its region as it
    poisons a canvas pixel (Python's ``min``/``max`` would drop it).
    """
    if part.counts is not None:
        part.counts[region_id] += count
    if part.sums is not None and values is not None and len(values):
        part.sums[region_id] += float(values.sum())
    if part.mins is not None and values is not None and len(values):
        part.mins[region_id] = np.minimum(part.mins[region_id], values.min())
    if part.maxs is not None and values is not None and len(values):
        part.maxs[region_id] = np.maximum(part.maxs[region_id], values.max())
