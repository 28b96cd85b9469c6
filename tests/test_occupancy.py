"""Unit tests for repro.grid.occupancy.SwarmState."""

import random

import numpy as np
import pytest

from repro.grid.geometry import bounding_box
from repro.grid.occupancy import SwarmState


class TestBasics:
    def test_len_and_contains(self):
        s = SwarmState([(0, 0), (1, 0)])
        assert len(s) == 2
        assert (0, 0) in s
        assert (2, 2) not in s

    def test_duplicates_collapse(self):
        s = SwarmState([(0, 0), (0, 0)])
        assert len(s) == 1

    def test_copy_is_independent(self):
        s = SwarmState([(0, 0)])
        c = s.copy()
        c.cells.add((5, 5))
        assert (5, 5) not in s

    def test_frozen_snapshot(self):
        s = SwarmState([(0, 0)])
        snap = s.frozen()
        s.cells.add((1, 1))
        assert snap == frozenset({(0, 0)})

    def test_equality(self):
        assert SwarmState([(0, 0), (1, 1)]) == SwarmState([(1, 1), (0, 0)])

    def test_bad_cell_type_raises(self):
        with pytest.raises(TypeError):
            SwarmState([(0.5, 1)])


class TestNeighborQueries:
    def test_degree(self):
        s = SwarmState([(0, 0), (1, 0), (0, 1), (-1, 0), (0, -1)])
        assert s.degree((0, 0)) == 4
        assert s.degree((1, 0)) == 1

    def test_occupied_neighbors4(self):
        s = SwarmState([(0, 0), (1, 0), (1, 1)])
        assert set(s.occupied_neighbors4((0, 0))) == {(1, 0)}

    def test_occupied_neighbors8_includes_diagonal(self):
        s = SwarmState([(0, 0), (1, 1)])
        assert set(s.occupied_neighbors8((0, 0))) == {(1, 1)}

    def test_is_boundary(self):
        s = SwarmState(
            [(x, y) for x in range(3) for y in range(3)]
        )
        assert s.is_boundary((0, 0))
        assert not s.is_boundary((1, 1))  # interior, degree 4


class TestGeometry:
    def test_bounding_box(self):
        s = SwarmState([(1, 2), (4, -1)])
        assert s.bounding_box() == (1, -1, 4, 2)

    def test_diameter(self):
        s = SwarmState([(0, 0), (3, 1)])
        assert s.diameter_chebyshev() == 3

    def test_is_gathered_2x2(self):
        assert SwarmState([(0, 0), (1, 0), (0, 1), (1, 1)]).is_gathered()
        assert not SwarmState([(0, 0), (2, 0)]).is_gathered()

    def test_single_robot_gathered(self):
        assert SwarmState([(7, 7)]).is_gathered()

    def test_to_array_sorted(self):
        s = SwarmState([(1, 0), (0, 0)])
        arr = s.to_array()
        assert arr.shape == (2, 2)
        assert (arr == np.array([[0, 0], [1, 0]])).all()

    def test_to_array_empty(self):
        assert SwarmState([]).to_array().shape == (0, 2)


class TestApplyMoves:
    def test_plain_move(self):
        s = SwarmState([(0, 0)])
        merged = s.apply_moves({(0, 0): (1, 1)})
        assert merged == 0
        assert s.cells == {(1, 1)}

    def test_merge_on_collision(self):
        s = SwarmState([(0, 0), (1, 0)])
        merged = s.apply_moves({(0, 0): (1, 0)})
        assert merged == 1
        assert s.cells == {(1, 0)}

    def test_two_movers_merge_midair(self):
        s = SwarmState([(0, 0), (2, 0)])
        merged = s.apply_moves({(0, 0): (1, 0), (2, 0): (1, 0)})
        assert merged == 1
        assert s.cells == {(1, 0)}

    def test_swap_does_not_merge(self):
        s = SwarmState([(0, 0), (1, 0)])
        merged = s.apply_moves({(0, 0): (1, 0), (1, 0): (0, 0)})
        assert merged == 0
        assert s.cells == {(0, 0), (1, 0)}

    def test_illegal_long_move_rejected(self):
        s = SwarmState([(0, 0)])
        with pytest.raises(ValueError):
            s.apply_moves({(0, 0): (2, 0)})

    def test_unknown_source_rejected(self):
        s = SwarmState([(0, 0)])
        with pytest.raises(KeyError):
            s.apply_moves({(5, 5): (5, 6)})

    def test_empty_moves_noop(self):
        s = SwarmState([(0, 0)])
        assert s.apply_moves({}) == 0
        assert s.cells == {(0, 0)}

    def test_mover_lands_on_cell_vacated_this_round(self):
        # (2,0) steps onto (1,0) in the same round (1,0) vacates: both
        # survive — FSYNC applies all moves simultaneously.
        s = SwarmState([(0, 0), (1, 0), (2, 0)])
        merged = s.apply_moves({(1, 0): (0, 0), (2, 0): (1, 0)})
        assert merged == 1  # only (1,0) -> (0,0) merged
        assert s.cells == {(0, 0), (1, 0)}
        assert s.last_changed == {(2, 0)}

    def test_chained_vacate_and_fill(self):
        # a whole column shifts down one cell: net change is only the ends
        s = SwarmState([(0, y) for y in range(4)])
        merged = s.apply_moves({(0, y): (0, y - 1) for y in range(1, 4)})
        assert merged == 1  # (0,1) merged onto the stationary (0,0)
        assert s.cells == {(0, 0), (0, 1), (0, 2)}
        assert s.last_changed == {(0, 3)}


class TestDirtyTracking:
    def test_plain_move_changed_cells(self):
        s = SwarmState([(0, 0), (1, 0)])
        s.apply_moves({(0, 0): (0, 1)})
        assert s.last_changed == {(0, 0), (0, 1)}
        assert s.version == 1

    def test_swap_changes_nothing(self):
        s = SwarmState([(0, 0), (1, 0)])
        s.apply_moves({(0, 0): (1, 0), (1, 0): (0, 0)})
        assert s.last_changed == frozenset()
        assert s.version == 1

    def test_merge_changed_is_source_only(self):
        s = SwarmState([(0, 0), (1, 0)])
        s.apply_moves({(0, 0): (1, 0)})
        assert s.last_changed == {(0, 0)}

    def test_empty_moves_still_bump_version(self):
        s = SwarmState([(0, 0)])
        s.apply_moves({})
        assert s.version == 1 and s.last_changed == frozenset()


class TestValidatedFastPath:
    def test_from_validated_adopts_set(self):
        cells = {(0, 0), (1, 0)}
        s = SwarmState.from_validated(cells)
        assert len(s) == 2 and (1, 0) in s

    def test_copy_skips_validation_but_is_equal(self):
        s = SwarmState([(0, 0), (2, 1)])
        c = s.copy()
        assert c == s
        c.apply_moves({(0, 0): (1, 1)})
        assert (0, 0) in s  # independent


def exact_masks(cells, x0, y0):
    """Line masks of ``cells`` built from scratch at origin (x0, y0)."""
    rows, cols = {}, {}
    for x, y in cells:
        rows[y] = rows.get(y, 0) | (1 << (x - x0))
        cols[x] = cols.get(x, 0) | (1 << (y - y0))
    return rows, cols


def assert_masks_exact(s):
    """The maintained masks equal a fresh build at their origin, the
    origin lies below every cell, and the box is the cells' box."""
    m = s.masks()
    assert (m.rows, m.cols) == exact_masks(s.cells, m.x0, m.y0)
    assert all(x >= m.x0 and y >= m.y0 for x, y in s.cells)
    assert s.bounding_box() == bounding_box(s.cells)


def random_swarm(rng, n=40):
    return {(rng.randrange(12), rng.randrange(12)) for _ in range(n)}


#: Hops drifting down and left, so the swarm reaches cells below the
#: mask origin and the masks are rebuilt mid-sequence.
DRIFT = (-1, -1, 0, 1)


class TestRowColIndices:
    """The per-row and per-column bitmasks (``SwarmState.masks``)."""

    def test_indices_track_moves(self):
        s = SwarmState([(0, 0), (1, 0), (2, 0)])
        m = s.masks()
        assert (m.x0, m.y0) == (-2, -2)
        assert m.rows == {0: 0b11100}
        s.apply_moves({(2, 0): (2, 1)})
        assert m.rows == {0: 0b1100, 1: 0b10000}
        assert m.cols == {0: 0b100, 1: 0b100, 2: 0b1000}
        assert s.masks() is m

    def test_bounding_box_tracks_moves(self):
        s = SwarmState([(0, 0), (1, 0), (2, 0)])
        assert s.bounding_box() == (0, 0, 2, 0)
        s.apply_moves({(2, 0): (1, 1)})
        assert s.bounding_box() == (0, 0, 1, 1)
        s.apply_moves({(1, 1): (1, 0)})
        assert s.bounding_box() == (0, 0, 1, 0)

    def test_move_robot_keeps_indices(self):
        s = SwarmState([(0, 0), (1, 0)])
        m = s.masks()
        assert s.move_robot((1, 0), (0, 0)) is True  # merge
        assert m.rows == {0: 0b100} and m.cols == {0: 0b100}
        assert s.bounding_box() == (0, 0, 0, 0)

    @pytest.mark.parametrize("seed", range(4))
    def test_masks_track_apply_moves(self, seed):
        rng = random.Random(seed)
        s = SwarmState(random_swarm(rng))
        first = s.masks()
        for _ in range(30):
            movers = rng.sample(sorted(s.cells), max(1, len(s) // 3))
            s.apply_moves(
                {
                    (x, y): (x + rng.choice(DRIFT), y + rng.choice(DRIFT))
                    for x, y in movers
                }
            )
            assert_masks_exact(s)
        assert s.masks() is not first  # the origin was rebuilt

    @pytest.mark.parametrize("seed", range(4))
    def test_masks_track_move_robot(self, seed):
        rng = random.Random(seed)
        s = SwarmState(random_swarm(rng))
        first = s.masks()
        for _ in range(300):
            x, y = rng.choice(sorted(s.cells))
            s.move_robot(
                (x, y), (x + rng.choice(DRIFT), y + rng.choice(DRIFT))
            )
            assert_masks_exact(s)
        assert s.masks() is not first

    def test_copies_start_without_masks(self):
        s = SwarmState([(0, 0), (1, 0), (5, 3)])
        s.masks()
        c = s.copy()
        v = SwarmState.from_validated({(0, 0), (1, 0)})
        assert c._masks is None and v._masks is None
        assert c.masks() is not s.masks()
        c.apply_moves({(5, 3): (4, 2)})
        assert_masks_exact(c)
        assert_masks_exact(s)
