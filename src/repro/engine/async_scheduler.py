"""ASYNC fair-scheduler engine.

The paper remarks (Section 1) that under a fair ASYNC scheduler — one robot
active at a time, a round ends once every robot has been activated at least
once — "a simple strategy could achieve the same O(n) rounds".  This engine
models exactly that scheduler so the remark can be measured (experiment E3):
robots are activated one after another in an adversarially shuffled order per
round; each activation sees the *current* (not snapshotted) state.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Protocol

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


@dataclass
class AsyncResult:
    gathered: bool
    rounds: int
    activations: int
    robots_initial: int
    robots_final: int
    metrics: MetricsLog
    #: Round-ordered event log (per-round ``merge`` events plus the
    #: terminal ``gathered``/``budget_exhausted``) — parity with
    #: :class:`repro.engine.scheduler.GatherResult`.
    events: EventLog = field(default_factory=EventLog)
    final_state: Optional[SwarmState] = None


class AsyncEngine:
    """Fair sequential scheduler: one robot moves at a time.

    A *round* is one pass over all currently-alive robots in a scheduler-
    chosen (seeded random) order.  Merges are applied immediately, so robots
    scheduled later in the round see the effects of earlier activations —
    the essential difference from FSYNC that makes the problem easy.
    """

    def __init__(
        self,
        state: SwarmState,
        controller: AsyncController,
        *,
        seed: int = 0,
        check_connectivity: bool = True,
        incremental_connectivity: bool = True,
        on_round: Optional[Callable[[int, SwarmState], None]] = None,
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
        self.on_round = on_round
        self.metrics = MetricsLog()
        self.events = EventLog()
        self.round_index = 0
        self.activations = 0
        self._terminal_version: Optional[int] = None

    def step_round(self) -> int:
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
        if self.on_round is not None:
            self.on_round(self.round_index, state)
        self.round_index += 1
        return merged

    def run(self, max_rounds: Optional[int] = None) -> AsyncResult:
        n0 = len(self.state)
        budget = (
            max_rounds if max_rounds is not None else default_round_budget(n0)
        )
        gathered = is_gathered(self.state)
        while not gathered and self.round_index < budget:
            self.step_round()
            gathered = is_gathered(self.state)
        # Terminal event, deduplicated across resumed runs exactly like
        # the round engine's (see RoundEngine.run).
        if self.state.version != self._terminal_version:
            self.events.emit(
                self.round_index,
                "gathered" if gathered else "budget_exhausted",
                rounds=self.round_index,
                robots=len(self.state),
            )
            self._terminal_version = self.state.version
        return AsyncResult(
            gathered=gathered,
            rounds=self.round_index,
            activations=self.activations,
            robots_initial=n0,
            robots_final=len(self.state),
            metrics=self.metrics,
            events=self.events,
            final_state=self.state,
        )
