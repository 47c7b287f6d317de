"""The map view: choropleths over any region resolution.

Figure 1 of the paper shows this view — taxi pickups for one month,
aggregated over the neighborhoods of NYC and colored by value.  The
view runs one spatial aggregation per refresh and paints each region's
rasterized pixels with its value's color; both passes reuse the raster
join's fragment machinery.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core import (
    AggregationResult,
    SpatialAggregation,
    pixel_region_labels,
)
from ..raster import Viewport
from ..table import PointTable
from .color import colors_for_values
from .datamanager import DataManager
from .render import ascii_render, image_from_pixels, write_ppm


@dataclass
class Choropleth:
    """A rendered choropleth: per-region values + the painted canvas."""

    result: AggregationResult
    viewport: Viewport
    pixel_regions: np.ndarray  # flat region id per pixel, -1 = background
    ramp: str
    mode: str

    @property
    def values(self) -> np.ndarray:
        return self.result.values

    def image(self, background=(255, 255, 255)) -> np.ndarray:
        """(H, W, 3) uint8 image of the choropleth."""
        colors = colors_for_values(self.values, ramp=self.ramp,
                                   mode=self.mode)
        return image_from_pixels(self.pixel_regions, self.viewport.width,
                                 self.viewport.height, colors, background)

    def save_ppm(self, path) -> None:
        write_ppm(path, self.image())

    def ascii(self, max_cols: int = 78, max_rows: int = 36) -> str:
        """Terminal rendering: per-pixel region value as intensity."""
        field = np.full(self.viewport.num_pixels, np.nan)
        drawn = self.pixel_regions >= 0
        vals = self.values[self.pixel_regions[drawn]]
        field[drawn] = vals
        return ascii_render(field, self.viewport.width,
                            self.viewport.height, max_cols, max_rows)


class MapView:
    """Urbane's map view against a :class:`DataManager`."""

    def __init__(self, manager: DataManager, resolution: int = 512,
                 ramp: str = "viridis", mode: str = "sqrt"):
        self.manager = manager
        self.resolution = int(resolution)
        self.ramp = ramp
        self.mode = mode

    def choropleth(self, dataset: str, regions: str,
                   query: SpatialAggregation,
                   method: str = "bounded",
                   viewport: Viewport | None = None) -> Choropleth:
        """Aggregate and paint one choropleth layer.

        ``viewport`` customizes the *painted* window (zoom/pan); the
        aggregation itself always runs over the full region extent —
        like Urbane, zooming changes what you see, not what the regions
        count.
        """
        region_set = self.manager.region_set(regions)
        agg_viewport = Viewport.fit(region_set.bbox, self.resolution)
        result = self.manager.aggregate(dataset, regions, query,
                                        method=method,
                                        viewport=agg_viewport)
        paint_viewport = viewport or agg_viewport
        pixel_regions = pixel_region_labels(
            self.manager.engine.fragments_for(region_set, paint_viewport))
        return Choropleth(result=result, viewport=paint_viewport,
                          pixel_regions=pixel_regions, ramp=self.ramp,
                          mode=self.mode)

    def zoom_to(self, dataset: str, regions: str,
                query: SpatialAggregation, region_name: str,
                margin: float = 0.25,
                method: str = "bounded") -> Choropleth:
        """Choropleth zoomed onto one region (plus a relative margin)."""
        region_set = self.manager.region_set(regions)
        geom = region_set[region_set.id_of(region_name)]
        box = geom.bbox
        pad = margin * max(box.width, box.height)
        viewport = Viewport.fit(box.expand(pad), self.resolution)
        return self.choropleth(dataset, regions, query, method=method,
                               viewport=viewport)

    def heatmap(self, dataset: str, resolution: int | None = None,
                query: SpatialAggregation | None = None
                ) -> tuple[np.ndarray, Viewport]:
        """Raw point-density heat map (no regions), for context layers."""
        from ..raster import scatter_count

        table: PointTable = self.manager.dataset(dataset)
        viewport = Viewport.fit(table.bbox, resolution or self.resolution)
        query = query or SpatialAggregation.count()
        mask = query.filter_mask(table)
        pixel_ids, valid = viewport.pixel_ids_of(table.x[mask],
                                                 table.y[mask])
        canvas = scatter_count(pixel_ids[valid], viewport.num_pixels)
        return canvas, viewport
