"""Polygon fragment tables.

Rasterizing a *set* of regions produces its :class:`FragmentTable`:
per-polygon FULL / PARTIAL interval runs (:class:`IntervalSet`) plus
the flat ``(pixel_id, polygon_id)`` pair arrays expanded from them —
guaranteed-interior pixels, boundary pixels, and the center-covered
subset of the boundary.  :func:`build_fragment_table` is the
polygon-side render pass of the raster join: one batched sweep over the
whole region set (:mod:`repro.raster.scanline` has the stages), runs
first, pixels second.  Since Urbane re-queries the same region sets
while the user brushes filters, the tables are cached per (regions,
viewport) by the executor; a table is complete when it is returned, so
the cache can size it once.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .. import kernels
from ..geometry.polygon import Geometry
from .scanline import (
    _boundary_keys,
    _classify_spans,
    _coverage_spans,
    _merge_touching,
    _stack_edges,
)
from .viewport import Viewport

# Cell classes of the interval classification, as canvas codes.
CELL_EMPTY = 0
CELL_FULL = 1
CELL_PARTIAL = 2


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

    Built directly by the polygon pass — FULL runs are the coverage
    spans minus the boundary cover, PARTIAL runs the boundary cover
    run-length encoded — and the table's per-pixel pair arrays are
    expanded from them, not the other way round.
    """

    full_offsets: np.ndarray    # (num_polygons + 1,) int64 run indices
    full_starts: np.ndarray     # flat pixel id where each run begins
    full_lengths: np.ndarray    # pixels per run
    partial_offsets: np.ndarray
    partial_starts: np.ndarray
    partial_lengths: np.ndarray

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


@dataclass(frozen=True)
class FragmentTable:
    """Flat fragment pairs for a rasterized region set.

    Every pair array is grouped by ascending polygon id with pixel ids
    ascending inside a polygon.
    """

    # All center-covered pairs — what the pure raster join iterates:
    # the interior pairs followed by the covered-boundary pairs, in one
    # allocation the two halves below are views of.
    covered_pixels: np.ndarray
    covered_polys: np.ndarray
    # Pixels fully inside their polygon (center-covered, not boundary).
    interior_pixels: np.ndarray
    interior_polys: np.ndarray
    # Center-covered boundary pixels (what the pure raster pass counts).
    covered_boundary_pixels: np.ndarray
    covered_boundary_polys: np.ndarray
    # Pixels that may straddle their polygon's boundary.
    boundary_pixels: np.ndarray
    boundary_polys: np.ndarray
    #: FULL/PARTIAL interval runs per polygon (see :class:`IntervalSet`).
    intervals: IntervalSet
    num_polygons: int
    viewport: Viewport

    @property
    def num_interior_fragments(self) -> int:
        return len(self.interior_pixels)

    @property
    def num_boundary_fragments(self) -> int:
        return len(self.boundary_pixels)

    @cached_property
    def cell_classes(self) -> np.ndarray:
        """Per-pixel cell class over the union of all polygons.

        PARTIAL wins over FULL: a point in any polygon's PARTIAL cell
        must be bucketed for exact testing even if the cell is FULL for
        another polygon (overlapping regions).  One int8 canvas, built
        once per table — the accurate join classifies every point pass
        against it.  (``cached_property`` stores into ``__dict__``
        directly, so it composes with the frozen dataclass.)
        """
        classes = np.zeros(self.viewport.num_pixels, dtype=np.int8)
        classes[self.interior_pixels] = CELL_FULL
        classes[self.boundary_pixels] = CELL_PARTIAL
        return classes


def _by_polygon(keys: np.ndarray, num_polygons: int, num_pixels: int
                ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Split ascending ``polygon * num_pixels + pixel`` keys into (CSR
    offsets per polygon, polygon ids, pixel ids)."""
    offsets = np.searchsorted(keys, np.arange(num_polygons + 1) * num_pixels)
    polys = np.repeat(np.arange(num_polygons), np.diff(offsets))
    return offsets, polys, keys - polys * num_pixels


def build_fragment_table(geometries: list[Geometry],
                         viewport: Viewport) -> FragmentTable:
    """Rasterize the whole region set in one batched sweep and assemble
    the fragment tables.

    Edges of every polygon are stacked once; coverage spans per
    (polygon, row) and the boundary cover come out of one vectorized
    pass each; FULL runs are the spans minus the boundary keys, by
    interval arithmetic; PARTIAL runs are the boundary keys run-length
    encoded.  The per-pixel interior pairs are then one expansion of
    the FULL runs — runs are the product, pixels are derived from them.
    """
    num_polygons = len(geometries)
    num_pixels = viewport.num_pixels
    edges = _stack_edges(geometries)
    boundary = _boundary_keys(edges, viewport)
    full_starts, full_lengths, covered = _classify_spans(
        *_coverage_spans(edges, viewport), boundary, viewport.width)
    partial_starts, partial_lengths = _merge_touching(
        boundary, boundary + 1, viewport.width)

    full_offsets, full_polys, full_starts = _by_polygon(
        full_starts, num_polygons, num_pixels)
    partial_offsets, _, partial_starts = _by_polygon(
        partial_starts, num_polygons, num_pixels)
    _, boundary_polys, boundary_pixels = _by_polygon(
        boundary, num_polygons, num_pixels)
    boundary_polys = boundary_polys.astype(np.int32)

    # Interior pairs (the FULL runs expanded) and covered-boundary pairs
    # land in one allocation: the bounded join reads it whole, the
    # accurate join and the bounds read the two halves as views.
    run_lengths = np.concatenate(
        [full_lengths, np.ones(len(covered), dtype=np.int64)])
    covered_pixels = kernels.active().expand_ranges(
        np.concatenate([full_starts, boundary_pixels[covered]]), run_lengths)
    covered_polys = np.repeat(
        np.concatenate([full_polys.astype(np.int32),
                        boundary_polys[covered]]), run_lengths)
    num_interior = len(covered_pixels) - len(covered)

    table = FragmentTable(
        covered_pixels=covered_pixels,
        covered_polys=covered_polys,
        interior_pixels=covered_pixels[:num_interior],
        interior_polys=covered_polys[:num_interior],
        covered_boundary_pixels=covered_pixels[num_interior:],
        covered_boundary_polys=covered_polys[num_interior:],
        boundary_pixels=boundary_pixels,
        boundary_polys=boundary_polys,
        intervals=IntervalSet(
            full_offsets=full_offsets, full_starts=full_starts,
            full_lengths=full_lengths, partial_offsets=partial_offsets,
            partial_starts=partial_starts, partial_lengths=partial_lengths),
        num_polygons=num_polygons,
        viewport=viewport,
    )
    # Materialize the cell classes now, while the table is cold — queries
    # then allocate nothing on it, and the cache's byte ledger (sized at
    # ``put``) stays exact.
    table.cell_classes
    return table
