"""Unit and property tests for repro.geometry.predicates."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry import orient2d, point_in_ring, points_in_ring

SQUARE = [[0, 0], [10, 0], [10, 10], [0, 10]]
# A concave "U" shape.
U_SHAPE = [[0, 0], [10, 0], [10, 10], [7, 10], [7, 3], [3, 3], [3, 10],
           [0, 10]]


class TestOrient2d:
    def test_left_turn_positive(self):
        assert orient2d(0, 0, 1, 0, 0, 1) > 0

    def test_right_turn_negative(self):
        assert orient2d(0, 0, 1, 0, 0, -1) < 0

    def test_collinear_zero(self):
        assert orient2d(0, 0, 1, 1, 2, 2) == 0

    def test_broadcasts(self):
        cx = np.array([0.0, 2.0])
        cy = np.array([1.0, 2.0])
        out = orient2d(0, 0, 1, 0, cx, cy)
        assert out.shape == (2,)


class TestPointsInRing:
    def test_inside_square(self):
        assert point_in_ring(5, 5, SQUARE)

    def test_outside_square(self):
        assert not point_in_ring(15, 5, SQUARE)

    def test_concave_pocket_outside(self):
        # The notch of the U is outside the polygon.
        assert not point_in_ring(5, 6, U_SHAPE)
        assert point_in_ring(1.5, 5, U_SHAPE)
        assert point_in_ring(8.5, 5, U_SHAPE)

    def test_vectorized_matches_scalar(self):
        gen = np.random.default_rng(0)
        pts = gen.uniform(-2, 12, size=(500, 2))
        mask = points_in_ring(pts, U_SHAPE)
        for p, m in zip(pts[:50], mask[:50]):
            assert point_in_ring(p[0], p[1], U_SHAPE) == m

    def test_empty_points(self):
        assert points_in_ring(np.empty((0, 2)), SQUARE).shape == (0,)

    def test_degenerate_ring_all_false(self):
        assert not points_in_ring([[5, 5]], [[0, 0], [1, 1]]).any()

    def test_partition_property_on_shared_edge(self):
        """Two squares sharing an edge: every point on the shared edge
        belongs to exactly one (the half-open convention)."""
        left = [[0, 0], [5, 0], [5, 10], [0, 10]]
        right = [[5, 0], [10, 0], [10, 10], [5, 10]]
        ys = np.linspace(0.5, 9.5, 37)
        pts = np.column_stack([np.full_like(ys, 5.0), ys])
        in_left = points_in_ring(pts, left)
        in_right = points_in_ring(pts, right)
        assert ((in_left.astype(int) + in_right.astype(int)) == 1).all()

    def test_ring_orientation_irrelevant(self):
        gen = np.random.default_rng(1)
        pts = gen.uniform(-2, 12, size=(200, 2))
        fwd = points_in_ring(pts, U_SHAPE)
        rev = points_in_ring(pts, U_SHAPE[::-1])
        assert (fwd == rev).all()

    @given(st.floats(0.01, 9.99), st.floats(0.01, 9.99))
    def test_interior_points_inside_square(self, x, y):
        assert point_in_ring(x, y, SQUARE)

    @settings(max_examples=50)
    @given(st.floats(-100, 100), st.floats(-100, 100))
    def test_far_points_outside(self, x, y):
        if -0.5 <= x <= 10.5 and -0.5 <= y <= 10.5:
            return
        assert not point_in_ring(x, y, SQUARE)

