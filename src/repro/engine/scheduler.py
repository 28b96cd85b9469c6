"""The FSYNC look-compute-move engine.

Every round (paper Section 1):

1. **look** — the controller reads the current :class:`SwarmState` (each
   simulated robot only uses its local view; centrally evaluating local rules
   is still a faithful simulation of a local algorithm);
2. **compute** — the controller returns the simultaneous moves of all robots
   that act this round;
3. **move** — the engine applies all moves at once; robots sharing a cell
   merge into one.

The engine also enforces the paper's global safety invariant (connectivity)
when ``check_connectivity`` is on, records metrics/events, and stops when the
swarm is gathered into a 2x2 square or the round budget runs out.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping, Optional, Protocol

from repro.engine.errors import ConnectivityViolation, NotGathered
from repro.engine.events import EventLog
from repro.engine.metrics import MetricsLog, RoundMetrics
from repro.engine.termination import default_round_budget, is_gathered
from repro.grid.boundary import outer_boundary
from repro.grid.connectivity import (
    connected_components,
    is_connected,
    locally_connected_after,
)
from repro.grid.envelope import enclosed_area
from repro.grid.geometry import Cell
from repro.grid.occupancy import SwarmState


class Controller(Protocol):
    """A synchronous distributed algorithm under simulation.

    ``plan_round`` returns the moves of the acting robots (source -> target,
    one 8-neighbor hop each).  ``notify_applied`` is called after the engine
    applied the moves so stateful controllers (run states!) can update their
    bookkeeping.  ``active_runs`` is optional instrumentation.
    """

    def plan_round(
        self, state: SwarmState, round_index: int
    ) -> Mapping[Cell, Cell]: ...

    def notify_applied(
        self,
        state: SwarmState,
        round_index: int,
        moves: Mapping[Cell, Cell],
        merged: int,
    ) -> None: ...


@dataclass
class GatherResult:
    """Outcome of one simulation run."""

    gathered: bool
    rounds: int
    robots_initial: int
    robots_final: int
    metrics: MetricsLog
    events: EventLog
    final_state: SwarmState

    @property
    def merges_total(self) -> int:
        return self.robots_initial - self.robots_final

    def rounds_per_robot(self) -> float:
        """Normalized runtime ``rounds / n`` — constant iff runtime is
        linear, the quantity experiment E1 tracks."""
        return self.rounds / max(self.robots_initial, 1)

    @classmethod
    def from_run_result(cls, result) -> "GatherResult":
        """Repackage a facade :class:`~repro.engine.protocols.RunResult`
        (same metrics/events/state objects — used by the legacy entry-
        point shims)."""
        return cls(
            gathered=result.gathered,
            rounds=result.rounds,
            robots_initial=result.robots_initial,
            robots_final=result.robots_final,
            metrics=result.metrics,
            events=result.events,
            final_state=result.final_state,
        )


class FsyncEngine:
    """Drives a :class:`Controller` over a :class:`SwarmState`.

    Parameters
    ----------
    state:
        Initial swarm (consumed; pass ``state.copy()`` to keep the origin).
    controller:
        The algorithm to simulate.
    check_connectivity:
        Verify 4-connectivity after every round and raise
        :class:`ConnectivityViolation` on breakage.  On by default because
        it is the paper's safety property.  The check is localized to the
        round's dirty region (``state.last_changed``) and falls back to
        the full O(n) BFS only when the local window cannot prove
        connectivity — e.g. when a vacated cell is a potential cut vertex
        whose sides reconnect, if at all, far away.
    incremental_connectivity:
        Allow the localized check above.  Off forces the seed's full BFS
        every round (used by the equivalence tests; the observable
        behavior is identical either way).
    track_boundary:
        Also record outer-boundary length and enclosed area per round
        (costs one boundary trace per round; used by figures/ablations).
    on_round:
        Optional callback ``(round_index, state)`` after each round —
        used by the visualizers to capture frames.
    """

    def __init__(
        self,
        state: SwarmState,
        controller: Controller,
        *,
        check_connectivity: bool = True,
        incremental_connectivity: bool = True,
        track_boundary: bool = False,
        gather_square: int = 2,
        on_round: Optional[Callable[[int, SwarmState], None]] = None,
    ) -> None:
        if len(state) == 0:
            raise ValueError("cannot simulate an empty swarm")
        if not is_connected(state.cells):
            raise ValueError("initial swarm must be connected (paper model)")
        self.state = state
        self.controller = controller
        self.check_connectivity = check_connectivity
        self.incremental_connectivity = incremental_connectivity
        self.track_boundary = track_boundary
        self.gather_square = gather_square
        self.on_round = on_round
        self.metrics = MetricsLog()
        # One shared, round-ordered log: if the controller keeps an
        # EventLog the engine adopts it, so controller events and the
        # engine's terminal events land in the same place (this is what
        # ``GatherResult.events`` exposes).  The adoption implies a 1:1
        # controller/engine pairing — sharing one controller across
        # engines shares one log (and run/cache state); gather() builds
        # a fresh controller per call for exactly this reason.
        ctrl_events = getattr(controller, "events", None)
        self.events = (
            ctrl_events if isinstance(ctrl_events, EventLog) else EventLog()
        )
        self.round_index = 0
        self._terminal_version: Optional[int] = None

    # ------------------------------------------------------------------
    def step(self) -> int:
        """Execute one FSYNC round; returns the number of merged robots."""
        state = self.state
        moves = self.controller.plan_round(state, self.round_index)
        merged = state.apply_moves(moves)
        self.controller.notify_applied(state, self.round_index, moves, merged)

        if self.check_connectivity:
            # The engine applied exactly one apply_moves since the last
            # check, so state.last_changed is the round's dirty region and
            # the localized proof applies; anything it cannot prove gets
            # the full BFS (bit-identical outcome, just slower).
            if not (
                self.incremental_connectivity
                and locally_connected_after(state.cells, state.last_changed)
            ):
                comps = connected_components(state.cells)
                if len(comps) > 1:
                    raise ConnectivityViolation(self.round_index, len(comps))

        boundary_len: Optional[int] = None
        area: Optional[float] = None
        if self.track_boundary:
            ob = outer_boundary(state)
            boundary_len = len(ob.sides)
            area = enclosed_area(ob)

        self.metrics.record(
            RoundMetrics(
                round_index=self.round_index,
                robots=len(state),
                merged=merged,
                diameter=state.diameter_chebyshev(),
                boundary_length=boundary_len,
                enclosed_area=area,
                active_runs=getattr(self.controller, "active_run_count", None),
            )
        )
        if self.on_round is not None:
            self.on_round(self.round_index, state)
        self.round_index += 1
        return merged

    def run(
        self,
        max_rounds: Optional[int] = None,
        *,
        raise_on_budget: bool = False,
    ) -> GatherResult:
        """Run until gathered or until ``max_rounds`` (default: the generous
        linear budget of :func:`default_round_budget`)."""
        n0 = len(self.state)
        budget = (
            max_rounds
            if max_rounds is not None
            else default_round_budget(n0)
        )
        gathered = is_gathered(self.state, self.gather_square)
        while not gathered and self.round_index < budget:
            self.step()
            gathered = is_gathered(self.state, self.gather_square)
        if not gathered and raise_on_budget:
            raise NotGathered(self.round_index, len(self.state))
        # Terminal event (round_index == total rounds executed): the log
        # records how the simulation ended, not only what happened in it.
        # A resumed run that made progress logs a new terminal; calling
        # run() again without any step does not duplicate the last one.
        if self.state.version != self._terminal_version:
            self.events.emit(
                self.round_index,
                "gathered" if gathered else "budget_exhausted",
                rounds=self.round_index,
                robots=len(self.state),
            )
            self._terminal_version = self.state.version
        return GatherResult(
            gathered=gathered,
            rounds=self.round_index,
            robots_initial=n0,
            robots_final=len(self.state),
            metrics=self.metrics,
            events=self.events,
            final_state=self.state,
        )
