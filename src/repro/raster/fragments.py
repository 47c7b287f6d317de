"""Polygon fragment tables.

Rasterizing a *set* of regions produces its :class:`FragmentTable`:
per-polygon FULL, PARTIAL and covered interval runs
(:class:`IntervalSet`) and nothing per pixel.
:func:`build_fragment_table` is the polygon-side render pass of the
raster join: one batched sweep over the whole region set
(:mod:`repro.raster.scanline` has the stages).  Every reader works on
the runs — the joins and boundary-mass bounds gather them
(:func:`repro.raster.canvas.run_gather`), the accurate join marks its
candidates from them, label canvases are painted from them — so no
pixel pair is expanded unless a caller asks for one.  Since Urbane
re-queries the same region sets while the user brushes filters, the
tables are cached per (regions, viewport) by the executor, and each
run family's gather plan next to its table; a table is complete when
it is returned, so the cache can size it once.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .. import kernels
from ..geometry.polygon import Geometry
from .canvas import run_gather
from .scanline import (
    _boundary_runs,
    _classify_spans,
    _coverage_spans,
    _stack_edges,
)
from .viewport import Viewport


@dataclass(frozen=True)
class IntervalSet:
    """Per-polygon FULL / PARTIAL pixel-interval classification.

    Raster-interval object approximation (Georgiadis, Tzirita
    Zacharatou, Mamoulis): each polygon's raster cells are classified
    into **FULL** runs (guaranteed-interior — every point in the run is
    inside the polygon), **PARTIAL** runs (cells the boundary may pass
    through, needing exact tests) and implicit **EMPTY** cells
    (everything else).  The **covered** runs are the center-covered
    sub-runs of the PARTIAL runs: what the pure raster pass counts
    besides the FULL runs.  Runs are maximal sequences of consecutive
    flat pixel ids within one raster row, stored CSR-style per polygon:
    polygon ``g`` owns runs ``full_offsets[g]:full_offsets[g + 1]``.

    Built directly by the polygon pass — PARTIAL runs are the boundary
    cover merged per (polygon, row), covered runs their overlaps with
    the coverage spans, FULL runs the spans minus the PARTIAL runs.
    """

    full_offsets: np.ndarray    # (num_polygons + 1,) int64 run indices
    full_starts: np.ndarray     # flat pixel id where each run begins
    full_lengths: np.ndarray    # pixels per run
    partial_offsets: np.ndarray
    partial_starts: np.ndarray
    partial_lengths: np.ndarray
    covered_offsets: np.ndarray
    covered_starts: np.ndarray
    covered_lengths: np.ndarray
    #: Run indices of each family in ascending start order — the order
    #: the run gather walks the canvas in (computed at build time, so
    #: the cache's byte ledger counts them).
    full_order: np.ndarray
    partial_order: np.ndarray
    covered_order: np.ndarray

    @property
    def full_pixels(self) -> int:
        return int(self.full_lengths.sum())

    @property
    def partial_pixels(self) -> int:
        return int(self.partial_lengths.sum())

    @property
    def num_full_runs(self) -> int:
        return len(self.full_starts)

    @property
    def num_partial_runs(self) -> int:
        return len(self.partial_starts)

    def runs(self, family: str) -> tuple[np.ndarray, np.ndarray,
                                          np.ndarray]:
        """``(starts, lengths, polygon ids)`` of the ``"full"``,
        ``"partial"`` or ``"covered"`` runs, grouped by polygon."""
        offsets = getattr(self, f"{family}_offsets")
        return (getattr(self, f"{family}_starts"),
                getattr(self, f"{family}_lengths"), _run_owners(offsets))

    def gather(self, family: str, canvas: np.ndarray, num_groups: int,
               ufunc=np.add, fill: float = 0.0, memo: dict | None = None,
               plans=None) -> np.ndarray:
        """One run family's join step: its runs'
        :func:`~repro.raster.canvas.run_gather` plan (``reduceat`` takes
        them in start order) applied to ``canvas``.  ``memo`` keeps the
        results by (family, canvas) across one join; ``plans(plan_key,
        prepare)``, when given, keeps the plans by (family, canvas size,
        ``num_groups``) across joins (see :attr:`FragmentTable.plans`)."""
        memo = {} if memo is None else memo
        key = (family, id(canvas), ufunc)
        if key not in memo:
            def prepare():
                starts, lengths, polys = self.runs(family)
                return run_gather(len(canvas), starts, starts + lengths,
                                  polys, num_groups,
                                  order=getattr(self, f"{family}_order"))

            plan_key = (family, len(canvas), num_groups)
            plan = prepare() if plans is None else plans(plan_key, prepare)
            memo[key] = plan(canvas, ufunc, fill)
        return memo[key]


def _run_owners(offsets: np.ndarray) -> np.ndarray:
    return np.repeat(np.arange(len(offsets) - 1, dtype=np.int32),
                     np.diff(offsets))


def _view(*families: str, polys: bool = False, doc: str | None = None
          ) -> property:
    """A pixel view expanded from run ``families`` on access: pixel ids,
    or with ``polys`` their int32 polygon ids."""
    def expand(self) -> np.ndarray:
        parts = []
        for family in families:
            starts, lengths, owners = self.intervals.runs(family)
            parts.append(np.repeat(owners, lengths) if polys else
                         kernels.active().expand_ranges(starts, lengths))
        return np.concatenate(parts)
    return property(expand, doc=doc)


@dataclass(frozen=True)
class FragmentTable:
    """A rasterized region set: its interval runs, nothing per pixel.

    The pixel pairs — interior (FULL), boundary (PARTIAL), covered
    boundary and all covered — are *expansions on access*, plain
    properties that are never stored, each grouped by ascending polygon
    id with pixel ids ascending inside a polygon.  Every join, bound and
    label canvas reads the runs.
    """

    intervals: IntervalSet  # runs per polygon (:class:`IntervalSet`)
    num_polygons: int
    viewport: Viewport
    #: Where the gather plans are kept (``plans`` of
    #: :meth:`IntervalSet.gather`): set on a cached table, so each plan
    #: is prepared once and charged to the cache next to the table.
    plans: object = field(default=None, compare=False, repr=False)

    def memory_bytes(self) -> int:
        """Resident bytes: the run arrays (the cache's byte ledger)."""
        return sum(int(v.nbytes) for v in vars(self.intervals).values())

    @property
    def num_interior_fragments(self) -> int:
        return self.intervals.full_pixels

    @property
    def num_boundary_fragments(self) -> int:
        return self.intervals.partial_pixels

    interior_pixels = _view("full", doc="Pixels fully inside their "
                            "polygon: the FULL runs expanded.")
    interior_polys = _view("full", polys=True)
    boundary_pixels = _view("partial", doc="Pixels that may straddle their "
                            "polygon's boundary: the PARTIAL runs expanded.")
    boundary_polys = _view("partial", polys=True)
    covered_boundary_pixels = _view("covered", doc="Center-covered boundary "
                                    "pixels: the covered runs expanded.")
    covered_boundary_polys = _view("covered", polys=True)
    covered_pixels = _view("full", "covered", doc="All center-covered "
                           "pixels: interior, then covered boundary.")
    covered_polys = _view("full", "covered", polys=True)


def _by_polygon(keys: np.ndarray, num_polygons: int, num_pixels: int
                ) -> tuple[np.ndarray, np.ndarray]:
    """Split ascending ``polygon * num_pixels + pixel`` keys into (CSR
    offsets per polygon, pixel ids)."""
    offsets = np.searchsorted(keys, np.arange(num_polygons + 1) * num_pixels)
    return offsets, keys - np.repeat(np.arange(num_polygons) * num_pixels,
                                     np.diff(offsets))


def build_fragment_table(geometries: list[Geometry],
                         viewport: Viewport) -> FragmentTable:
    """Rasterize the whole region set in one batched sweep and assemble
    the fragment table (see :func:`polygon_pass`)."""
    return polygon_pass(geometries, viewport)[0]


def polygon_pass(geometries: list[Geometry], viewport: Viewport
                 ) -> tuple[FragmentTable, int]:
    """The fragment table of a region set and the on-screen (edge, row)
    pairs its boundary pass walked, the unit its cost follows.  Spans and
    PARTIAL runs come out of one vectorized pass each over the stacked
    edges; FULL runs are the spans minus the PARTIAL runs, covered runs
    the spans within them."""
    num_polygons = len(geometries)
    edges = _stack_edges(geometries)
    *partial, edge_rows = _boundary_runs(edges, viewport)
    spans = _classify_spans(*_coverage_spans(edges, viewport), *partial,
                            viewport.width)
    runs = {}
    for family, (starts, lengths) in (("full", spans[:2]),
                                      ("partial", partial),
                                      ("covered", spans[2:])):
        offsets, starts = _by_polygon(starts, num_polygons,
                                      viewport.num_pixels)
        runs.update({f"{family}_offsets": offsets,
                     f"{family}_starts": starts,
                     f"{family}_lengths": lengths,
                     f"{family}_order": np.argsort(starts)})
    table = FragmentTable(intervals=IntervalSet(**runs),
                          num_polygons=num_polygons, viewport=viewport)
    return table, edge_rows
