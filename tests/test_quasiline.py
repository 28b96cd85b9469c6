"""Unit tests for quasi lines, stairways, and run start sites (Def. 1)."""

import pytest

from repro.core.quasiline import (
    _chain_segments,
    boundary_segments,
    is_quasi_line,
    is_stairway,
    run_start_sites,
)
from repro.grid.boundary import extract_boundaries
from repro.grid.occupancy import SwarmState
from repro.swarms.generators import ring, solid_rectangle


class TestChainSegments:
    def test_straight_line(self):
        chain = [(x, 0) for x in range(4)]
        assert _chain_segments(chain) == [("h", 4)]

    def test_l_turn(self):
        chain = [(0, 0), (1, 0), (2, 0), (2, 1), (2, 2)]
        assert _chain_segments(chain) == [("h", 3), ("v", 3)]

    def test_diagonal_breaks_segment(self):
        chain = [(0, 0), (1, 0), (2, 1), (3, 1)]
        segs = _chain_segments(chain)
        assert ("h", 2) in segs

    def test_empty(self):
        assert _chain_segments([]) == []


class TestQuasiLineDef:
    def test_straight_horizontal(self):
        chain = [(x, 0) for x in range(6)]
        assert is_quasi_line(chain, "h")
        assert not is_quasi_line(chain, "v")

    def test_with_short_jog(self):
        chain = (
            [(x, 0) for x in range(3)]
            + [(2, 1)]
            + [(x, 1) for x in range(3, 6)]
        )
        # h-runs: 3 then (2,1),(3,1),(4,1),(5,1) = 4; v-run: 2  -> quasi line
        assert is_quasi_line(chain, "h")

    def test_long_vertical_violates(self):
        chain = (
            [(x, 0) for x in range(3)]
            + [(2, 1), (2, 2)]
            + [(x, 2) for x in range(3, 6)]
        )
        # vertical subchain (2,0),(2,1),(2,2) has 3 robots -> not quasi line
        assert not is_quasi_line(chain, "h")

    def test_short_horizontal_run_violates(self):
        chain = [
            (0, 0), (1, 0), (1, 1), (2, 1), (2, 2),
            (3, 2), (3, 3), (4, 3), (4, 4), (5, 4),
        ]
        assert not is_quasi_line(chain, "h")

    def test_too_short(self):
        assert not is_quasi_line([(0, 0), (1, 0)], "h")

    def test_bad_axis(self):
        with pytest.raises(ValueError):
            is_quasi_line([(0, 0)], "x")


class TestStairway:
    def test_staircase_chain(self):
        chain = [(0, 0), (1, 0), (1, 1), (2, 1), (2, 2), (3, 2)]
        assert is_stairway(chain)

    def test_line_is_not_stairway(self):
        assert not is_stairway([(x, 0) for x in range(5)])

    def test_long_run_not_stairway(self):
        chain = [(0, 0), (1, 0), (2, 0), (2, 1), (3, 1)]
        assert not is_stairway(chain)

    def test_too_short(self):
        assert not is_stairway([(0, 0), (1, 0)])


class TestBoundarySegments:
    def test_square_sides(self):
        b = extract_boundaries(SwarmState(solid_rectangle(4, 4)))[0]
        segs = boundary_segments(b)
        lens = sorted(ln for _, _, ln in segs)
        # four sides of 4 robots (the linear scan splits the wrapped one)
        assert max(lens) == 4
        assert len(segs) >= 4


class TestStartSites:
    def test_ring_corners_are_sites(self):
        state = SwarmState(ring(8))
        sites = run_start_sites(extract_boundaries(state))
        robots = {s.robot for s in sites}
        top = 7
        assert (0, 0) in robots
        assert (top, top) in robots

    def test_start_b_yields_two_directions(self):
        state = SwarmState(ring(8))
        sites = run_start_sites(extract_boundaries(state))
        at_corner = [s for s in sites if s.robot == (0, 0)]
        dirs = {s.direction for s in at_corner}
        assert dirs == {1, -1}

    def test_line_has_no_sites(self):
        # 1-thick line endpoints reverse the contour; leaf merges own them
        state = SwarmState([(x, 0) for x in range(10)])
        sites = run_start_sites(extract_boundaries(state))
        assert sites == []

    def test_mid_stretch_not_a_site(self):
        state = SwarmState(ring(10))
        sites = run_start_sites(extract_boundaries(state))
        assert all(s.robot != (4, 0) for s in sites)

    def test_stretch_direction_reported(self):
        state = SwarmState(ring(8))
        sites = run_start_sites(extract_boundaries(state))
        for s in sites:
            assert abs(s.stretch_dir[0]) + abs(s.stretch_dir[1]) == 1

    def test_chamfered_corner_is_site(self):
        # quasi line ending in a stairway (diagonal contour step behind)
        cells = sorted(
            set(ring(8)) - {(0, 0), (7, 0), (0, 7), (7, 7)}
            | {(1, 1), (6, 1), (1, 6), (6, 6)}
        )
        state = SwarmState(cells)
        sites = run_start_sites(extract_boundaries(state))
        assert sites, "chamfered ring must still offer start sites"
