"""ASYNC fair-scheduler greedy gathering (the paper's Section 1 remark).

"Contrary, if one would assume a fair scheduler in the ASYNC time model,
which allows only one robot to be active at a time and finishes a round
after every robot has been active at least once, a simple strategy could
achieve the same O(n) rounds."

The simple strategy: an activated robot merges onto its only neighbor if it
is a leaf, merges onto the occupied between-diagonal if it is a convex
corner, and otherwise folds inward at a convex corner with a free diagonal.
Because only one robot moves at a time, each action trivially preserves
connectivity (exactly the property FSYNC destroys and the paper's run
machinery restores).  Experiment E3 measures the O(n) rounds claim.
"""

from __future__ import annotations

from repro.grid.geometry import Cell, add, neighbors4, perpendicular, sub
from repro.grid.occupancy import SwarmState


class AsyncGreedyGatherer:
    """Per-activation rule for the fair ASYNC scheduler."""

    def activate(self, state: SwarmState, robot: Cell) -> Cell:
        nbrs = [n for n in neighbors4(robot) if n in state]
        if len(nbrs) == 1:
            # Leaf: hop onto the single neighbor (a merge).  With n == 2
            # the engine has already stopped (2 robots are gathered).
            return nbrs[0]
        if len(nbrs) == 2:
            v0, v1 = sub(nbrs[0], robot), sub(nbrs[1], robot)
            if perpendicular(v0, v1):
                target = add(robot, add(v0, v1))
                # Corner: merge onto the occupied diagonal, or fold into a
                # free one.  Sequential execution keeps both anchor
                # adjacencies, so either is safe.
                return target
        return robot
