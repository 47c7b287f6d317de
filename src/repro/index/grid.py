"""Uniform point grid index.

:class:`PointGridIndex` buckets points into a uniform grid (CSR layout:
points sorted by cell with per-cell offsets), the structure the
index-join baseline in the paper's evaluation uses.  Range queries
return candidate point ids.
"""

from __future__ import annotations

import numpy as np

from ..errors import GeometryError
from ..geometry import BBox
from .keys import stable_argsort


class PointGridIndex:
    """Uniform grid over a point set with CSR cell buckets."""

    def __init__(self, x: np.ndarray, y: np.ndarray, bbox: BBox,
                 nx: int = 64, ny: int = 64):
        if nx < 1 or ny < 1:
            raise GeometryError("grid needs at least one cell per axis")
        self.bbox = bbox
        self.nx = int(nx)
        self.ny = int(ny)
        self._x = np.asarray(x, dtype=np.float64)
        self._y = np.asarray(y, dtype=np.float64)

        width = max(bbox.width, 1e-300)
        height = max(bbox.height, 1e-300)
        cx = np.clip(((self._x - bbox.xmin) / width * nx).astype(np.int64), 0, nx - 1)
        cy = np.clip(((self._y - bbox.ymin) / height * ny).astype(np.int64), 0, ny - 1)
        cell_ids = cy * nx + cx

        # CSR: order[i] lists point ids sorted by cell; offsets per cell.
        self.order = stable_argsort(cell_ids, nx * ny)
        self.offsets = np.zeros(nx * ny + 1, dtype=np.int64)
        np.cumsum(np.bincount(cell_ids, minlength=nx * ny),
                  out=self.offsets[1:])

    @classmethod
    def over(cls, x: np.ndarray, y: np.ndarray,
             cells: int) -> "PointGridIndex":
        """A ``cells`` x ``cells`` grid over the points' own envelope.

        No points give a degenerate box at the origin; every query on
        that grid returns no candidates.
        """
        x = np.asarray(x, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        bbox = (BBox(float(x.min()), float(y.min()),
                     float(x.max()), float(y.max()))
                if len(x) else BBox(0.0, 0.0, 0.0, 0.0))
        return cls(x, y, bbox, nx=cells, ny=cells)

    def __len__(self) -> int:
        return len(self._x)

    def cell_of(self, x: float, y: float) -> tuple[int, int]:
        """Grid cell (ix, iy) containing a point (clamped to the grid)."""
        width = max(self.bbox.width, 1e-300)
        height = max(self.bbox.height, 1e-300)
        ix = int(np.clip((x - self.bbox.xmin) / width * self.nx, 0, self.nx - 1))
        iy = int(np.clip((y - self.bbox.ymin) / height * self.ny, 0, self.ny - 1))
        return ix, iy

    def cell_points(self, ix: int, iy: int) -> np.ndarray:
        """Ids of the points bucketed in cell (ix, iy)."""
        cell = iy * self.nx + ix
        return self.order[self.offsets[cell] : self.offsets[cell + 1]]

    def _cell_range(self, query: BBox) -> tuple[int, int, int, int]:
        """Inclusive cell-index ranges overlapped by ``query``."""
        width = max(self.bbox.width, 1e-300)
        height = max(self.bbox.height, 1e-300)
        ix0 = int(np.floor((query.xmin - self.bbox.xmin) / width * self.nx))
        ix1 = int(np.floor((query.xmax - self.bbox.xmin) / width * self.nx))
        iy0 = int(np.floor((query.ymin - self.bbox.ymin) / height * self.ny))
        iy1 = int(np.floor((query.ymax - self.bbox.ymin) / height * self.ny))
        ix0 = max(ix0, 0)
        iy0 = max(iy0, 0)
        ix1 = min(ix1, self.nx - 1)
        iy1 = min(iy1, self.ny - 1)
        return ix0, ix1, iy0, iy1

    def query_bbox(self, query: BBox) -> np.ndarray:
        """Candidate point ids whose cells overlap ``query``.

        Candidates are a superset of the true answer (cell granularity);
        callers refine with exact coordinate tests.
        """
        if not self.bbox.intersects(query):
            return np.empty(0, dtype=np.int64)
        ix0, ix1, iy0, iy1 = self._cell_range(query)
        if ix0 > ix1 or iy0 > iy1:
            return np.empty(0, dtype=np.int64)
        chunks = []
        for iy in range(iy0, iy1 + 1):
            # Cells in a row are contiguous in the CSR layout.
            start = self.offsets[iy * self.nx + ix0]
            stop = self.offsets[iy * self.nx + ix1 + 1]
            if stop > start:
                chunks.append(self.order[start:stop])
        if not chunks:
            return np.empty(0, dtype=np.int64)
        return np.concatenate(chunks)

    def count_bbox(self, query: BBox) -> int:
        """``len(query_bbox(query))``, read from the CSR offsets without
        building the id array."""
        if not self.bbox.intersects(query):
            return 0
        ix0, ix1, iy0, iy1 = self._cell_range(query)
        if ix0 > ix1 or iy0 > iy1:
            return 0
        rows = np.arange(iy0, iy1 + 1) * self.nx
        return int((self.offsets[rows + ix1 + 1]
                    - self.offsets[rows + ix0]).sum())

    def query_bbox_exact(self, query: BBox) -> np.ndarray:
        """Point ids exactly inside ``query`` (candidates + refinement)."""
        cand = self.query_bbox(query)
        if len(cand) == 0:
            return cand
        x = self._x[cand]
        y = self._y[cand]
        keep = (
            (x >= query.xmin) & (x <= query.xmax)
            & (y >= query.ymin) & (y <= query.ymax)
        )
        return cand[keep]
