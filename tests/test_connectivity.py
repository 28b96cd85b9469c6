"""Unit tests for repro.grid.connectivity."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.grid.connectivity import (
    articulation_cells,
    connected_components,
    is_connected,
    locally_connected_after,
)
from repro.grid.geometry import DIRECTIONS8
from repro.grid.occupancy import SwarmState
from repro.swarms.generators import random_blob, random_tree


class TestIsConnected:
    def test_empty_and_singleton(self):
        assert is_connected([])
        assert is_connected([(0, 0)])

    def test_line_connected(self):
        assert is_connected([(i, 0) for i in range(10)])

    def test_diagonal_not_connected(self):
        # 4-connectivity: diagonal adjacency does not count (paper model)
        assert not is_connected([(0, 0), (1, 1)])

    def test_two_components(self):
        assert not is_connected([(0, 0), (5, 5)])

    def test_ring_connected(self):
        cells = [
            (x, y)
            for x in range(4)
            for y in range(4)
            if x in (0, 3) or y in (0, 3)
        ]
        assert is_connected(cells)


class TestComponents:
    def test_counts(self):
        comps = connected_components([(0, 0), (1, 0), (5, 5)])
        assert sorted(len(c) for c in comps) == [1, 2]

    def test_partition(self):
        cells = [(0, 0), (1, 0), (5, 5), (5, 6), (9, 9)]
        comps = connected_components(cells)
        assert sum(len(c) for c in comps) == len(cells)
        union = set().union(*comps)
        assert union == set(cells)

    def test_empty(self):
        assert connected_components([]) == []


class TestArticulation:
    def test_line_interior_cut(self):
        cells = [(i, 0) for i in range(5)]
        arts = articulation_cells(cells)
        assert arts == {(1, 0), (2, 0), (3, 0)}

    def test_block_has_none(self):
        cells = [(x, y) for x in range(3) for y in range(3)]
        assert articulation_cells(cells) == set()

    def test_ring_has_none(self):
        cells = [
            (x, y)
            for x in range(4)
            for y in range(4)
            if x in (0, 3) or y in (0, 3)
        ]
        assert articulation_cells(cells) == set()

    def test_bridge_between_blocks(self):
        block1 = [(x, y) for x in range(2) for y in range(2)]
        block2 = [(x + 4, y) for x in range(2) for y in range(2)]
        bridge = [(2, 0), (3, 0)]
        arts = articulation_cells(block1 + bridge + block2)
        assert (2, 0) in arts and (3, 0) in arts

    def test_tiny_swarms(self):
        assert articulation_cells([(0, 0)]) == set()
        assert articulation_cells([(0, 0), (1, 0)]) == set()

    def test_deep_line_no_recursion_error(self):
        # iterative Tarjan must survive a 5000-cell line
        cells = [(i, 0) for i in range(5000)]
        arts = articulation_cells(cells)
        assert len(arts) == 4998


def _moved(tree, n, seed, steps):
    """A connected blob or tree of ``n`` cells after one round of king
    moves; ``steps`` maps a robot's index in sorted order to its step."""
    cells = sorted((random_tree if tree else random_blob)(n, seed))
    state = SwarmState(cells)
    state.apply_moves({
        cells[i]: (cells[i][0] + dx, cells[i][1] + dy)
        for i, (dx, dy) in steps.items()
    })
    return state


@st.composite
def moved_swarms(draw):
    n = draw(st.integers(min_value=5, max_value=60))
    steps = draw(st.dictionaries(
        st.integers(min_value=0, max_value=n - 1),
        st.sampled_from(DIRECTIONS8),
        max_size=n,
    ))
    return _moved(
        draw(st.booleans()), n, draw(st.integers(0, 10_000)), steps
    )


def _block(x0, y0, w, h):
    return {(x, y) for x in range(x0, x0 + w) for y in range(y0, y0 + h)}


class TestLocallyConnectedAfter:
    """The certificate may say "inconclusive" (False) on a connected
    swarm, never True on a disconnected one."""

    @settings(max_examples=300, deadline=None)
    @given(state=moved_swarms())
    def test_true_implies_connected(self, state):
        if locally_connected_after(state.cells, state.last_changed):
            assert is_connected(state.cells)

    def test_seeded_batch_is_sound_and_not_vacuous(self):
        outcomes = {"certified": 0, "disconnected": 0, "inconclusive": 0}
        rng = random.Random(7)
        for _ in range(400):
            n = rng.randint(5, 60)
            steps = {
                i: rng.choice(DIRECTIONS8)
                for i in rng.sample(range(n), rng.randint(1, n // 3 + 1))
            }
            state = _moved(
                rng.random() < 0.5, n, rng.randrange(10_000), steps
            )
            proven = locally_connected_after(state.cells, state.last_changed)
            connected = is_connected(state.cells)
            assert connected or not proven
            if proven:
                outcomes["certified"] += 1
            elif connected:
                outcomes["inconclusive"] += 1
            else:
                outcomes["disconnected"] += 1
        assert all(outcomes.values()), outcomes

    def test_two_cell_bridge_is_a_cut(self):
        # Read over the blocks alone, each bridge cell touches one block
        # only and looks removable; counting the other bridge cell, not
        # yet deleted, shows that each one joins two sides.
        blocks = _block(0, 0, 2, 2) | _block(4, 0, 2, 2)
        assert not locally_connected_after(blocks, {(2, 0), (3, 0)})
        assert not is_connected(blocks)

    def test_two_cell_stalk_needs_a_retry(self):
        # (1, 1) sorts first but joins the base row to (1, 2) while that
        # cell is still present; it must wait for (1, 2) to go.
        base = {(0, 0), (1, 0), (2, 0)}
        assert locally_connected_after(base, {(1, 1), (1, 2)})

    def test_added_cells_touching_only_each_other(self):
        cells = {(0, 0), (1, 0), (5, 5), (5, 6)}
        assert not locally_connected_after(cells, {(5, 5), (5, 6)})

    def test_vacated_leaf(self):
        assert locally_connected_after({(0, 0), (1, 0)}, {(2, 0)})

    def test_empty_change(self):
        assert locally_connected_after({(0, 0), (1, 0)}, ())
