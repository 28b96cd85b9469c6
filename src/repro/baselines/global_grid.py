"""Global-vision grid gathering baseline ([SN14] flavour, experiment E4).

With global vision the problem is easy (the paper says so in Section 2: the
robots "could compute the center of the globally smallest enclosing square
... and just move to this point").  Every robot steps one cell (8-neighbor
move) toward the center of the smallest enclosing rectangle; collisions
merge.  Gathering needs about diameter/2 rounds, and the total number of
cell moves is the quantity [SN14] optimizes.

Connectivity is *not* required in this model, so the engine runs with the
connectivity check off.
"""

from __future__ import annotations

from typing import Dict, Mapping

from repro.grid.geometry import Cell
from repro.grid.occupancy import SwarmState


def _sign_step(delta: float) -> int:
    """One-cell step toward a fractional target offset."""
    if delta > 0.49:
        return 1
    if delta < -0.49:
        return -1
    return 0


class GlobalVisionGatherer:
    """FSYNC controller: hop toward the enclosing-rectangle center."""

    def __init__(self) -> None:
        self.total_moves = 0

    def plan_round(
        self, state: SwarmState, round_index: int
    ) -> Mapping[Cell, Cell]:
        min_x, min_y, max_x, max_y = state.bounding_box()
        cx = (min_x + max_x) / 2.0
        cy = (min_y + max_y) / 2.0
        moves: Dict[Cell, Cell] = {}
        for (x, y) in state:
            dx = _sign_step(cx - x)
            dy = _sign_step(cy - y)
            if dx or dy:
                moves[(x, y)] = (x + dx, y + dy)
        return moves

    def notify_applied(self, state, round_index, moves, merged) -> None:
        # The [SN14] cost measure counts moves that actually happened —
        # under SSYNC the scheduler drops non-activated robots' planned
        # moves, so counting here (not in plan_round) stays honest.
        self.total_moves += len(moves)
