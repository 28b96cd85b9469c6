"""Unit tests for repro.grid.geometry."""

import pytest

from repro.grid.geometry import (
    DIAGONALS,
    DIRECTIONS8,
    EAST,
    NORTH,
    SOUTH,
    WEST,
    add,
    bounding_box,
    chebyshev,
    l1_distance,
    neighbors4,
    neighbors8,
    perpendicular,
    rotate_ccw,
    rotate_cw,
    scale,
    sub,
)


class TestVectorOps:
    def test_add(self):
        assert add((1, 2), (3, -4)) == (4, -2)

    def test_sub(self):
        assert sub((1, 2), (3, -4)) == (-2, 6)

    def test_scale(self):
        assert scale((2, -3), 4) == (8, -12)

    def test_add_sub_inverse(self):
        a, b = (5, -7), (11, 13)
        assert sub(add(a, b), b) == a


class TestDistances:
    def test_l1(self):
        assert l1_distance((0, 0), (3, 4)) == 7

    def test_l1_symmetric(self):
        assert l1_distance((2, -1), (-3, 5)) == l1_distance((-3, 5), (2, -1))

    def test_chebyshev(self):
        assert chebyshev((0, 0), (3, 4)) == 4

    def test_chebyshev_diagonal_hop_is_one(self):
        # one 8-neighbor hop always covers Chebyshev distance 1
        for d in DIRECTIONS8:
            assert chebyshev((0, 0), d) == 1

    def test_l1_of_diagonal_is_two(self):
        for d in DIAGONALS:
            assert l1_distance((0, 0), d) == 2


class TestNeighborhoods:
    def test_neighbors4_count_and_distance(self):
        ns = neighbors4((3, 3))
        assert len(ns) == 4
        assert all(l1_distance((3, 3), n) == 1 for n in ns)

    def test_neighbors8_count_and_distance(self):
        ns = neighbors8((3, 3))
        assert len(set(ns)) == 8
        assert all(chebyshev((3, 3), n) == 1 for n in ns)

    def test_neighbors4_subset_of_neighbors8(self):
        assert set(neighbors4((0, 0))) <= set(neighbors8((0, 0)))


class TestRotations:
    def test_rotate_ccw_cycle(self):
        assert rotate_ccw(EAST) == NORTH
        assert rotate_ccw(NORTH) == WEST
        assert rotate_ccw(WEST) == SOUTH
        assert rotate_ccw(SOUTH) == EAST

    def test_rotate_cw_inverse_of_ccw(self):
        for d in DIRECTIONS8:
            assert rotate_cw(rotate_ccw(d)) == d

    def test_four_rotations_identity(self):
        v = (3, 5)
        for _ in range(4):
            v = rotate_ccw(v)
        assert v == (3, 5)

    def test_perpendicular(self):
        assert perpendicular(EAST, NORTH)
        assert not perpendicular(EAST, WEST) or EAST[0] * WEST[0] == 0
        assert not perpendicular((1, 0), (1, 0))
        assert perpendicular((2, 0), (0, -5))


class TestBoundingBox:
    def test_single(self):
        assert bounding_box([(2, 3)]) == (2, 3, 2, 3)

    def test_general(self):
        assert bounding_box([(0, 0), (-2, 5), (7, -1)]) == (-2, -1, 7, 5)

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            bounding_box([])
