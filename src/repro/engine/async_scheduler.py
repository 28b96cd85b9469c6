"""ASYNC fair-scheduler engine.

The paper remarks (Section 1) that under a fair ASYNC scheduler — one robot
active at a time, a round ends once every robot has been activated at least
once — "a simple strategy could achieve the same O(n) rounds".  This engine
models exactly that scheduler so the remark can be measured (experiment E3):
robots are activated one after another in an adversarially shuffled order per
round; each activation sees the *current* (not snapshotted) state.
:func:`~repro.engine.termination.run_engine` steps it to the end of the
run, like the round engine.
"""

from __future__ import annotations

import random
from typing import Any, Dict, List, Optional, Protocol

from repro.engine.errors import ConnectivityViolation
from repro.engine.events import EventLog
from repro.engine.metrics import MetricsLog, RoundMetrics
from repro.engine.termination import default_round_budget, is_gathered
from repro.grid.connectivity import (
    connected_components,
    is_connected,
    locally_connected_after,
)
from repro.grid.geometry import Cell, chebyshev
from repro.grid.occupancy import SwarmState


class AsyncController(Protocol):
    """Per-activation decision rule: given the live state and the activated
    robot's cell, return its target cell (or the same cell to stay)."""

    def activate(self, state: SwarmState, robot: Cell) -> Cell: ...


class AsyncEngine:
    """Fair sequential scheduler: one robot moves at a time.

    A *round* is one pass over all currently-alive robots in a scheduler-
    chosen (seeded random) order.  Merges are applied immediately, so robots
    scheduled later in the round see the effects of earlier activations —
    the essential difference from FSYNC that makes the problem easy.
    """

    #: A disconnecting activation raises :class:`ConnectivityViolation`
    #: (no schedule to blame), so no run ends ``connectivity_lost``.
    connectivity_lost = False

    def __init__(
        self,
        state: SwarmState,
        controller: AsyncController,
        *,
        seed: int = 0,
        check_connectivity: bool = True,
        incremental_connectivity: bool = True,
    ) -> None:
        if len(state) == 0:
            raise ValueError("cannot simulate an empty swarm")
        if not is_connected(state.cells):
            # Same contract as RoundEngine — and the precondition of the
            # per-activation connectivity certificate below, which is
            # only sound relative to a previously-connected swarm.
            raise ValueError("initial swarm must be connected (paper model)")
        self.state = state
        self.controller = controller
        self.rng = random.Random(seed)
        self.check_connectivity = check_connectivity
        #: Allow the per-activation ``locally_connected_after`` certificate
        #: (a single-robot move is its easiest case: one vacated cell, at
        #: most one added cell, one table lookup).  Off forces the full
        #: O(n) BFS after every activation, the seed behavior; observable
        #: results are identical either way — the certificate is sound,
        #: and when it is inconclusive the engine falls back to the BFS.
        self.incremental_connectivity = incremental_connectivity
        self.robots_initial = len(state)
        self.metrics = MetricsLog()
        self.events = EventLog()
        self.round_index = 0
        self.activations = 0
        self.terminal_round: Optional[int] = None

    def step(self) -> int:
        """One fair round (every robot activated once); returns merges."""
        state = self.state
        # Canonical order before the seeded shuffle: ``state.cells`` is a
        # set, so ``list()`` would bake the hash-table order into the
        # permutation and the trajectory would depend on the interpreter
        # rather than on ``seed`` alone.
        order: List[Cell] = sorted(state.cells)
        self.rng.shuffle(order)
        merged = 0
        for robot in order:
            if robot not in state:  # merged away earlier this round
                continue
            target = self.controller.activate(state, robot)
            if target == robot:
                continue
            if chebyshev(robot, target) > 1:
                raise ValueError(f"illegal async move {robot} -> {target}")
            if state.move_robot(robot, target):
                merged += 1
            self.activations += 1
            if self.check_connectivity:
                # ``move_robot`` records the activation's dirty cells, so
                # the localized certificate applies directly; only an
                # inconclusive local window pays the full O(n) BFS.
                if not (
                    self.incremental_connectivity
                    and locally_connected_after(
                        state.cells, state.last_changed
                    )
                ):
                    comps = connected_components(state.cells)
                    if len(comps) > 1:
                        raise ConnectivityViolation(
                            self.round_index, len(comps)
                        )
        if merged:
            self.events.emit(self.round_index, "merge", removed=merged)
        self.metrics.record(
            RoundMetrics(
                round_index=self.round_index,
                robots=len(state),
                merged=merged,
                diameter=state.diameter_chebyshev(),
            )
        )
        self.round_index += 1
        return merged

    def gathered(self) -> bool:
        """All robots fit in the gathering square."""
        return is_gathered(self.state)

    def default_budget(self) -> int:
        """The linear budget of :func:`default_round_budget`."""
        return default_round_budget(self.robots_initial)

    def result_fields(self) -> Dict[str, Any]:
        """This engine's :class:`~repro.engine.protocols.RunResult`
        fields."""
        return {
            "robots_initial": self.robots_initial,
            "robots_final": len(self.state),
            "final_state": self.state,
            "activations": self.activations,
        }
