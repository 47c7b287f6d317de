"""Map gestures on the interactive session: pan/zoom over the pyramid.

The session pins its canvas to a :class:`CanvasGrid` on the first map
gesture; every later pan/zoom/set_viewport lands on block-aligned cache
keys, so overlapping gestures assemble from cached pyramid blocks and
the interaction log records the reuse.
"""

import numpy as np
import pytest

from repro.core import SpatialAggregation
from repro.core.pyramid import GridViewport
from repro.geometry import BBox
from repro.urbane import DataManager, InteractiveSession


@pytest.fixture()
def manager(demo):
    dm = DataManager()
    for name, table in demo.datasets.items():
        dm.add_dataset(table, name)
    for name, regions in demo.regions.items():
        dm.add_region_set(regions, name)
    return dm


@pytest.fixture()
def session(manager):
    return InteractiveSession(manager, "taxi", "boroughs", resolution=128)


class TestGestureMechanics:
    def test_viewport_is_lazy(self, session):
        # Opening the view must not pin a grid: sessions that never
        # move the map keep the plain planned-viewport cache keys.
        assert session._viewport is None
        session.pan(8, 0)
        assert isinstance(session._viewport, GridViewport)

    def test_pan_snaps_to_whole_pixels(self, session):
        session.pan(8.4, -3.6)  # snaps to (8, -4)
        gv = session.grid_viewport()
        base = InteractiveSession(
            session.manager, "taxi", "boroughs",
            resolution=128).grid_viewport()
        assert gv.col0 == base.col0 + 8
        assert gv.row0 == base.row0 - 4
        assert gv.level == base.level

    def test_zoom_snaps_to_levels(self, session):
        session.pan(0, 0)
        level0 = session.grid_viewport().level
        session.zoom(2.0)
        assert session.grid_viewport().level == level0 + 1
        session.zoom(0.5)
        assert session.grid_viewport().level == level0
        session.zoom(0.5)  # already at the finest level: clamps
        assert session.grid_viewport().level == 0

    def test_set_viewport_snaps_edges(self, session):
        gv = session.grid_viewport()
        target = BBox(gv.bbox.xmin + 5 * gv.grid.pw,
                      gv.bbox.ymin + 3 * gv.grid.ph,
                      gv.bbox.xmin + 69 * gv.grid.pw,
                      gv.bbox.ymin + 67 * gv.grid.ph)
        session.set_viewport(target)
        snapped = session._viewport
        # A sub-half-pixel wobble — a drag released almost in place —
        # must fingerprint to the *same* viewport.
        wobble = BBox(target.xmin + 0.2 * gv.grid.pw,
                      target.ymin - 0.3 * gv.grid.ph,
                      target.xmax + 0.2 * gv.grid.pw,
                      target.ymax - 0.3 * gv.grid.ph)
        session.set_viewport(wobble)
        assert session._viewport == snapped

    def test_region_level_change_drops_viewport(self, session):
        session.pan(8, 0)
        assert session._viewport is not None
        session.set_region_level("neighborhoods")
        assert session._viewport is None

    def test_gestures_are_logged(self, session):
        session.pan(8, 0)
        session.zoom(2.0)
        ops = [item.op for item in session.log]
        assert ops == ["open", "pan", "zoom"]


class TestGestureReuse:
    def test_revisit_reuses_blocks(self, session):
        session.pan(0, 0)  # pin the grid: a first frame runs direct
        session.pan(16, 0)  # the view moved: scatter its blocks
        session.pan(-8, 0)  # a new window inside the resident blocks
        back = session.log[-1]
        assert back.block_hits > 0
        assert back.block_misses == 0
        assert back.block_reuse == 1.0

    def test_zoom_out_reuses_children(self, manager):
        # A frame several blocks wide, so recentered level-1 blocks can
        # find all four level-0 children resident.
        session = InteractiveSession(manager, "taxi", "boroughs",
                                     resolution=512)
        session.pan(0, 0)
        session.pan(16, 0)  # the first move caches the level-0 blocks
        session.zoom(2.0)
        out = session.log[-1]
        # COUNT zoom-out derives coarse blocks from the cached frame.
        assert out.block_hits > 0

    def test_gesture_results_match_direct(self, session, demo):
        from repro.core import bounded_raster_join
        from repro.core.pyramid import Viewport

        result = session.pan(16, -8)
        gv = session.grid_viewport()
        direct = bounded_raster_join(
            demo.datasets["taxi"], demo.regions["boroughs"],
            SpatialAggregation.count(),
            Viewport(gv.bbox, gv.width, gv.height))
        assert np.array_equal(result.values, direct.values)
        assert np.array_equal(result.lower, direct.lower)
        assert np.array_equal(result.upper, direct.upper)

    def test_summary_and_report_surface_reuse(self, session):
        session.pan(0, 0)
        session.pan(16, 0)
        session.pan(-8, 0)
        stats = session.summary()
        assert stats["block_hits"] > 0
        assert 0.0 < stats["block_reuse_rate"] <= 1.0
        assert "block reuse" in session.report()
