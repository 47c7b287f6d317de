"""Polygon fragment tables.

Rasterizing a *set* of regions produces its :class:`FragmentTable`:
per-polygon FULL / PARTIAL interval runs (:class:`IntervalSet`), the
flat ``(pixel_id, polygon_id)`` boundary pairs and which of them are
center-covered.  :func:`build_fragment_table` is the polygon-side render
pass of the raster join: one batched sweep over the whole region set
(:mod:`repro.raster.scanline` has the stages).  Nothing per-pixel is
stored beyond the boundary: every join gathers the FULL runs directly
(:func:`repro.raster.canvas.gather_runs`), so interior pixels are never
expanded.  Since Urbane re-queries the same region sets while the user
brushes filters, the tables are cached per (regions, viewport) by the
executor; a table is complete when it is returned, so the cache can size
it once.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .. import kernels
from ..geometry.polygon import Geometry
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
    (everything else).  Runs are maximal sequences of consecutive flat
    pixel ids within one raster row, stored CSR-style per polygon:
    polygon ``g`` owns runs ``full_offsets[g]:full_offsets[g + 1]``.

    Built directly by the polygon pass — PARTIAL runs are the boundary
    cover merged per (polygon, row), FULL runs the coverage spans minus
    the PARTIAL runs.
    """

    full_offsets: np.ndarray    # (num_polygons + 1,) int64 run indices
    full_starts: np.ndarray     # flat pixel id where each run begins
    full_lengths: np.ndarray    # pixels per run
    partial_offsets: np.ndarray
    partial_starts: np.ndarray
    partial_lengths: np.ndarray
    #: FULL run indices in ascending start order — the order the run
    #: gather walks the canvas in (computed at build time, so the
    #: cache's byte ledger counts it).
    full_order: np.ndarray

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

    @property
    def full_polys(self) -> np.ndarray:
        """int32 polygon id of each FULL run."""
        return _run_owners(self.full_offsets)

    @property
    def partial_polys(self) -> np.ndarray:
        """int32 polygon id of each PARTIAL run."""
        return _run_owners(self.partial_offsets)

    def full_runs_by_start(self) -> tuple[np.ndarray, np.ndarray,
                                          np.ndarray]:
        """``(starts, stops, polygon ids)`` of the FULL runs in ascending
        start order — what :func:`~repro.raster.canvas.gather_runs`
        takes."""
        order = self.full_order
        starts = self.full_starts[order]
        return (starts, starts + self.full_lengths[order],
                self.full_polys[order])


def _run_owners(offsets: np.ndarray) -> np.ndarray:
    return np.repeat(np.arange(len(offsets) - 1, dtype=np.int32),
                     np.diff(offsets))


@dataclass(frozen=True)
class FragmentTable:
    """A rasterized region set: interval runs plus boundary pairs.

    Every pair array is grouped by ascending polygon id with pixel ids
    ascending inside a polygon.  The interior and covered pair arrays
    are *expansions on access* — plain properties, never stored — kept
    for the readers that want pixels (labeling, the temporal cube's
    prefix gathers); the joins gather runs.
    """

    # Pixels that may straddle their polygon's boundary.
    boundary_pixels: np.ndarray
    boundary_polys: np.ndarray
    #: Indices into the boundary pairs of the center-covered ones.
    covered_index: np.ndarray
    #: FULL/PARTIAL interval runs per polygon (see :class:`IntervalSet`).
    intervals: IntervalSet
    num_polygons: int
    viewport: Viewport

    @property
    def num_interior_fragments(self) -> int:
        return self.intervals.full_pixels

    @property
    def num_boundary_fragments(self) -> int:
        return len(self.boundary_pixels)

    @property
    def interior_pixels(self) -> np.ndarray:
        """Pixels fully inside their polygon (center-covered, not
        boundary): the FULL runs expanded."""
        iv = self.intervals
        return kernels.active().expand_ranges(iv.full_starts,
                                              iv.full_lengths)

    @property
    def interior_polys(self) -> np.ndarray:
        iv = self.intervals
        return np.repeat(iv.full_polys, iv.full_lengths)

    @property
    def covered_boundary_pixels(self) -> np.ndarray:
        """Center-covered boundary pixels (what the pure raster pass
        counts besides the FULL runs)."""
        return self.boundary_pixels[self.covered_index]

    @property
    def covered_boundary_polys(self) -> np.ndarray:
        return self.boundary_polys[self.covered_index]

    @property
    def covered_pixels(self) -> np.ndarray:
        """All center-covered pixels: interior, then covered boundary."""
        return np.concatenate([self.interior_pixels,
                               self.covered_boundary_pixels])

    @property
    def covered_polys(self) -> np.ndarray:
        return np.concatenate([self.interior_polys,
                               self.covered_boundary_polys])


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
    edges; FULL runs are the spans minus the PARTIAL runs."""
    num_polygons = len(geometries)
    edges = _stack_edges(geometries)
    partial_starts, partial_lengths, edge_rows = _boundary_runs(
        edges, viewport)
    full_starts, full_lengths, covered = _classify_spans(
        *_coverage_spans(edges, viewport), partial_starts, partial_lengths,
        viewport.width)
    full_offsets, full_starts = _by_polygon(full_starts, num_polygons,
                                            viewport.num_pixels)
    partial_offsets, partial_starts = _by_polygon(
        partial_starts, num_polygons, viewport.num_pixels)

    table = FragmentTable(
        boundary_pixels=kernels.active().expand_ranges(partial_starts,
                                                        partial_lengths),
        boundary_polys=np.repeat(_run_owners(partial_offsets),
                                 partial_lengths),
        covered_index=covered,
        intervals=IntervalSet(
            full_offsets=full_offsets, full_starts=full_starts,
            full_lengths=full_lengths, partial_offsets=partial_offsets,
            partial_starts=partial_starts, partial_lengths=partial_lengths,
            full_order=np.argsort(full_starts)),
        num_polygons=num_polygons,
        viewport=viewport,
    )
    return table, edge_rows
