"""The synchronous round loop of every grid time model.

Every round (paper Section 1):

1. **look** — the activated robots read the current :class:`SwarmState`
   (each simulated robot only uses its local view; centrally evaluating
   local rules is still a faithful simulation of a local algorithm);
2. **compute** — the controller returns their simultaneous moves;
3. **move** — the engine applies all moves at once; robots sharing a
   cell merge into one.

:class:`RoundEngine` runs that round for ``fsync``, ``ssync``,
``ssync-faulty`` and ``async-lcm``.  A time model is three independent
layers over that one round:

* **activation** — an :class:`~repro.engine.ssync_scheduler.
  ActivationSchedule` picks who acts; no schedule means FSYNC, where
  everyone acts and no robot identity is tracked;
* **view age** Δ (``staleness``) — Δ = 0 is the plain round; Δ > 0
  decouples the cycle (async-lcm): an activated robot computes on the
  plan or snapshot of a seeded ``s ∈ [0, Δ]`` rounds ago and its move
  lands a seeded ``d ∈ [0, Δ]`` rounds later, discarded with a
  ``stale_move`` event if it is no longer a legal king step;
* **fault layer** — sleep and crash faults come with the schedule;
  byzantine robots lie about their position, hop off-plan, or play dead.

The engine enforces the paper's global safety invariant (connectivity)
when ``check_connectivity`` is on and records metrics and events.
:func:`~repro.engine.termination.run_engine` steps it until the swarm is
gathered into a 2x2 square, the connectivity check trips under a
schedule, or the round budget runs out.
"""

from __future__ import annotations

import random
from typing import (
    Any,
    Dict,
    FrozenSet,
    Iterable,
    List,
    Mapping,
    Optional,
    Protocol,
    Tuple,
)

from repro.engine.errors import ConnectivityViolation
from repro.engine.events import EventLog
from repro.engine.faults import BYZANTINE_BEHAVIORS, _mix, _token_int
from repro.engine.metrics import MetricsLog, RoundMetrics
from repro.engine.termination import default_round_budget, is_gathered
from repro.grid.connectivity import (
    connected_components,
    is_connected,
    locally_connected_after,
)
from repro.grid.geometry import Cell, chebyshev
from repro.grid.occupancy import SwarmState

#: Draw-stream ids for the two per-activation staleness draws (disjoint
#: from the fault injector's class ids by construction — different salt
#: position, same mixer).
_CLASS_LOOK_LAG = 0
_CLASS_MOVE_LAG = 1


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


class TokenLedger:
    """Stable robot identity over a swarm.

    Integer tokens are assigned over the sorted initial cells and
    followed through every applied move; robots landing on one cell
    merge, keeping the smallest token.  :meth:`apply` touches only the
    round's movers and the cells they land on.
    """

    __slots__ = ("cell_of", "id_at", "prev_cell")

    def __init__(self, cells: Iterable[Cell]) -> None:
        #: token -> current cell
        self.cell_of: Dict[int, Cell] = dict(enumerate(sorted(cells)))
        #: current cell -> token
        self.id_at: Dict[Cell, int] = {
            c: t for t, c in self.cell_of.items()
        }
        #: token -> cell before the last round, for the tokens that
        #: moved in it (what a byzantine ``stale`` robot reports).
        self.prev_cell: Dict[int, Cell] = {}

    def roster(self) -> List[int]:
        """Every token, in canonical (sorted) order."""
        return sorted(self.cell_of)

    def apply(self, moves: Mapping[Cell, Cell]) -> Dict[int, int]:
        """Follow the tokens through ``moves`` (source -> target cells,
        as applied to the state); returns the merge renames
        ``{vanished token: surviving token}``."""
        id_at = self.id_at
        cell_of = self.cell_of
        # Lift every mover first, so a target vacated this round reads
        # as empty and only a robot that stayed put can be found there.
        movers = [(id_at.pop(src), src, dst) for src, dst in moves.items()]
        prev: Dict[int, Cell] = {}
        remap: Dict[int, int] = {}
        for token, src, dst in movers:
            other = id_at.get(dst)
            if other is None or token < other:
                id_at[dst] = token
                cell_of[token] = dst
                prev[token] = src
                if other is not None:
                    del cell_of[other]
                    prev.pop(other, None)
                    remap[other] = token
            else:
                del cell_of[token]
                remap[token] = other
        # A robot that lost to a later, smaller arrival was renamed to a
        # token that vanished in turn; follow it to the final survivor.
        for old, new in remap.items():
            while new in remap:
                new = remap[new]
            remap[old] = new
        self.prev_cell = prev
        return remap


class RoundEngine:
    """Drives a controller over a :class:`SwarmState`, one synchronous
    round at a time, under an optional activation schedule; an engine
    of :func:`~repro.engine.termination.run_engine`.

    Parameters
    ----------
    state:
        Initial swarm (consumed; pass ``state.copy()`` to keep the origin).
    controller:
        The algorithm to simulate: a ``plan_round`` controller (the
        paper's :class:`~repro.core.algorithm.GatherOnGrid`, the
        global-vision baseline) or, under a schedule, a per-robot
        ``activate`` controller (the async greedy baseline — every
        activated robot computes its target against the round's
        snapshot, then all moves apply simultaneously).
    schedule:
        An :class:`~repro.engine.ssync_scheduler.ActivationSchedule`;
        ``None`` runs FSYNC.  With a schedule the engine follows robot
        identity in a :class:`TokenLedger` (what crash faults, fairness
        streaks and byzantine roles attach to), keeps the moves of
        activated robots only, and reports a broken connectivity check
        as an outcome instead of raising (``connectivity_lost``).
    staleness, seed:
        The view age Δ and the seed of its draws (schedules only).
        Staleness draws are churn-invariant pure functions of
        ``(seed, token, round)``, independent of the activation and
        fault streams.
    check_connectivity:
        Verify 4-connectivity after every round.  On by default because
        it is the paper's safety property.  The check certifies the
        round's changed cells (``state.last_changed``) by simple-point
        deletion in O(changed) (:func:`~repro.grid.connectivity.
        locally_connected_after`) and runs the full O(n) BFS only when
        that certificate is inconclusive — e.g. when vacated cells cut
        the swarm locally and its sides reconnect, if at all, only
        beyond each cell's 3x3 window.
    incremental_connectivity:
        Allow the certificate above.  Off forces the seed's full BFS
        every round (used by the equivalence tests; the observable
        behavior is identical either way, because the certificate only
        decides whether the BFS runs).
    """

    def __init__(
        self,
        state: SwarmState,
        controller: Any,
        schedule: Any = None,
        *,
        staleness: int = 0,
        seed: int = 0,
        check_connectivity: bool = True,
        incremental_connectivity: bool = True,
    ) -> None:
        if len(state) == 0:
            raise ValueError("cannot simulate an empty swarm")
        if not is_connected(state.cells):
            raise ValueError("initial swarm must be connected (paper model)")
        if staleness < 0:
            raise ValueError(
                f"staleness must be a non-negative round count, "
                f"got {staleness!r}"
            )
        faults = schedule.faults if schedule is not None else None
        byzantine = faults is not None and faults.byzantine_rate > 0.0
        if staleness and (schedule is None or byzantine):
            raise ValueError(
                "staleness needs an activation schedule without "
                "byzantine faults"
            )
        self.state = state
        self.controller = controller
        self.schedule = schedule
        self.staleness = int(staleness)
        self.seed = int(seed)
        self.check_connectivity = check_connectivity
        self.incremental_connectivity = incremental_connectivity
        self.robots_initial = len(state)
        self.metrics = MetricsLog()
        # One shared, round-ordered log: if the controller keeps an
        # EventLog the engine adopts it, so controller events, the
        # schedule's activation/fault events and the engine's terminal
        # events land in the same place (what ``RunResult.events``
        # exposes).  The adoption implies a 1:1 controller/engine
        # pairing — sharing one controller across engines shares one
        # log (and run/cache state); simulate() builds a fresh
        # controller per call for exactly this reason.
        ctrl_events = getattr(controller, "events", None)
        self.events = (
            ctrl_events if isinstance(ctrl_events, EventLog) else EventLog()
        )
        self.round_index = 0
        #: Total robot-activations (schedules only).
        self.activations = 0
        #: Total byzantine misbehaviors drawn (one per alive byzantine
        #: robot per round); surfaces as ``RunResult.byzantine_actions``.
        self.byzantine_actions = 0
        #: Set when the connectivity check trips under a schedule; ends
        #: the run with a ``connectivity_lost`` terminal event.
        self.connectivity_lost = False
        self.terminal_round: Optional[int] = None
        self._plans = hasattr(controller, "plan_round")
        self.ledger: Optional[TokenLedger] = None
        if schedule is None:
            return
        schedule.events = self.events
        schedule.token_info = self._token_info
        self.ledger = TokenLedger(state.cells)
        self._last_moves: Mapping[Cell, Cell] = {}
        #: Byzantine roles are run-constant: drawn once per token.
        self._byzantine: List[int] = (
            faults.byzantine_tokens(self.ledger.roster())
            if faults is not None
            else []
        )
        # The Δ layer: per-round look archives, newest last, pruned to
        # Δ + 1 entries — the plan as token -> target (plan_round
        # controllers), or the state snapshot and where each token stood
        # (activate controllers) — and the in-flight moves.
        self._plan_history: List[Dict[int, Cell]] = []
        self._snapshot_history: List[SwarmState] = []
        self._position_history: List[Dict[int, Cell]] = []
        #: In-flight moves: (landing_round, token, target), appended in
        #: activation order — landing processing re-sorts by token.
        self._pending: List[Tuple[int, int, Cell]] = []
        #: Tokens whose cycle is in flight (ignore re-activation).
        self._busy_until: Dict[int, int] = {}

    # ------------------------------------------------------------------
    def _token_info(self, token: int) -> Dict[str, Any]:
        cell = self.ledger.cell_of.get(token)
        return {"cell": cell} if cell is not None else {}

    def _hints(self) -> FrozenSet[int]:
        """Progress-carrier tokens for the adversarial policy: the grid
        algorithm's runner robots when the controller exposes a run
        manager, else whoever moved last round."""
        run_manager = getattr(self.controller, "run_manager", None)
        if run_manager is not None:
            cells = {run.robot for run in run_manager.runs.values()}
        else:
            cells = set(self._last_moves.values())
        id_at = self.ledger.id_at
        return frozenset(id_at[c] for c in cells if c in id_at)

    def _activate(self, r: int) -> Optional[set]:
        """This round's active tokens; ``None`` means every robot."""
        schedule = self.schedule
        ledger = self.ledger
        robots = len(ledger.cell_of)
        if not self._busy_until and schedule.select_everyone(r, robots):
            self.activations += robots
            return None
        # Every token left in the busy map lands this round or later:
        # its cycle is still in flight, so it cannot start a new one.
        active = schedule.select(
            r, ledger.roster(), hints=self._hints(), busy=self._busy_until
        )
        self.activations += len(active)
        return active

    # -- the fault layer ------------------------------------------------
    def _byzantine_behaviors(self, r: int) -> Dict[int, str]:
        """This round's misbehavior per alive byzantine token (crash
        trumps byzantine: a crashed robot stops acting, period)."""
        faults = self.schedule.faults
        cell_of = self.ledger.cell_of
        crashed = self.schedule.crashed
        return {
            token: faults.byzantine_behavior(r, token)
            for token in self._byzantine
            if token in cell_of and token not in crashed
        }

    def _perceived_state(self, byz_behaviors: Dict[int, str]) -> SwarmState:
        """The state honest robots observe: each ``stale`` byzantine
        robot is substituted back to its previous-round cell, in token
        order, skipping any lie that is vacuous (it has not moved),
        collides with a real robot, or would make the *perceived* swarm
        disconnected — a visibly teleporting or detached robot would be
        an illegal observation, not an adversarial one."""
        ledger = self.ledger
        occupied_view = None
        substitutions: Dict[Cell, Cell] = {}
        for token in sorted(byz_behaviors):
            if byz_behaviors[token] != "stale":
                continue
            cur = ledger.cell_of[token]
            prev = ledger.prev_cell.get(token, cur)
            if prev == cur:
                continue
            if occupied_view is None:
                occupied_view = set(self.state.cells)
            if prev in occupied_view:
                continue
            trial = (occupied_view - {cur}) | {prev}
            if not is_connected(trial):
                continue
            occupied_view = trial
            substitutions[cur] = prev
        if not substitutions:
            return self.state
        perceived = self.state.copy()
        perceived.apply_moves(substitutions)
        return perceived

    # -- the view-age layer ---------------------------------------------
    def _lag(self, class_id: int, token: int, round_index: int) -> int:
        """The seeded staleness draw in ``[0, Δ]``."""
        return random.Random(
            _mix(self.seed, class_id, _token_int(token), round_index)
        ).randrange(self.staleness + 1)

    def _stale_moves(self, r: int, active: Optional[set]) -> Dict[Cell, Cell]:
        """Δ > 0: archive this round's look, launch the activated
        robots' cycles on looks up to Δ rounds old, and land every move
        due this round that is still legal."""
        state = self.state
        controller = self.controller
        ledger = self.ledger
        cell_of = ledger.cell_of
        keep = self.staleness + 1
        if self._plans:
            planned = controller.plan_round(state, r)
            id_at = ledger.id_at
            history: List[Any] = self._plan_history
            history.append(
                {id_at[src]: dst for src, dst in planned.items()
                 if src in id_at}
            )
        else:
            history = self._snapshot_history
            history.append(state.copy())
            self._position_history.append(dict(cell_of))
            del self._position_history[:-keep]
        del history[:-keep]

        tokens = ledger.roster() if active is None else sorted(active)
        for token in tokens:
            look_lag = min(
                self._lag(_CLASS_LOOK_LAG, token, r), len(history) - 1
            )
            if self._plans:
                target = history[-1 - look_lag].get(token)
            else:
                robot_then = self._position_history[-1 - look_lag].get(
                    token, cell_of[token]
                )
                target = controller.activate(
                    history[-1 - look_lag], robot_then
                )
                if target is not None and chebyshev(robot_then, target) > 1:
                    raise ValueError(
                        f"illegal async-lcm move {robot_then} -> {target}"
                    )
            if target is None:
                continue
            move_lag = self._lag(_CLASS_MOVE_LAG, token, r)
            self._busy_until[token] = r + move_lag
            self._pending.append((r + move_lag, token, target))

        # Land every move due this round (including the d = 0 ones just
        # scheduled).  Landing order is token order — simultaneous, like
        # an SSYNC round's move phase.
        landing = sorted(
            (token, target)
            for due, token, target in self._pending
            if due <= r
        )
        self._pending = [p for p in self._pending if p[0] > r]
        crashed = self.schedule.crashed
        moves: Dict[Cell, Cell] = {}
        discarded: List[int] = []
        for token, target in landing:
            cur = cell_of.get(token)
            if cur is None or token in crashed:
                # merged away or crash-stopped mid-flight: the cycle
                # evaporates silently (there is no robot left to move)
                continue
            if target == cur:
                continue
            if chebyshev(cur, target) > 1:
                discarded.append(token)
                continue
            moves[cur] = target
        if discarded:
            self.events.emit(r, "stale_move", robots=sorted(discarded))
        return moves

    # -- the plain scheduled round --------------------------------------
    def _scheduled_moves(
        self, r: int, active: Optional[set]
    ) -> Mapping[Cell, Cell]:
        """Δ = 0: the activated robots' moves against the round's
        (possibly byzantine-perceived) snapshot."""
        ledger = self.ledger
        controller = self.controller
        byz = self._byzantine_behaviors(r) if self._byzantine else {}
        perceived = self._perceived_state(byz) if byz else self.state
        if self._plans:
            planned = controller.plan_round(perceived, r)
            if active is None:
                moves = planned
            else:
                id_at = ledger.id_at
                moves = {
                    src: dst
                    for src, dst in planned.items()
                    if id_at.get(src) in active and id_at[src] not in byz
                }
        else:
            moves = {}
            cell_of = ledger.cell_of
            tokens = ledger.roster() if active is None else sorted(active)
            for token in tokens:
                if token in byz:
                    continue
                robot = cell_of[token]
                target = controller.activate(perceived, robot)
                if target is None or target == robot:
                    continue
                if chebyshev(robot, target) > 1:
                    raise ValueError(
                        f"illegal ssync move {robot} -> {target}"
                    )
                moves[robot] = target
        if byz:
            # A byzantine robot never follows the plan: ``stale`` and
            # ``dead`` robots stand still (their planned moves were
            # withheld above); an activated ``offplan`` robot hops to a
            # seeded king-move neighbor of its own choosing.
            faults = self.schedule.faults
            for token in sorted(byz):
                if byz[token] != "offplan" or token not in active:
                    continue
                cur = ledger.cell_of[token]
                dx, dy = faults.byzantine_offset(r, token)
                moves[cur] = (cur[0] + dx, cur[1] + dy)
            self.byzantine_actions += len(byz)
            for behavior in BYZANTINE_BEHAVIORS:
                robots = sorted(t for t, b in byz.items() if b == behavior)
                if robots:
                    self.events.emit(
                        r, "byzantine", behavior=behavior, robots=robots
                    )
        return moves

    # ------------------------------------------------------------------
    def step(self) -> int:
        """Execute one round; returns the number of merged robots."""
        state = self.state
        r = self.round_index
        controller = self.controller
        schedule = self.schedule
        if schedule is None:
            moves = controller.plan_round(state, r)
        else:
            active = self._activate(r)
            if self.staleness:
                moves = self._stale_moves(r, active)
            else:
                moves = self._scheduled_moves(r, active)
        merged = state.apply_moves(moves)
        notify = getattr(controller, "notify_applied", None)
        if notify is not None:
            notify(state, r, moves, merged)

        if self.check_connectivity:
            # The engine applied exactly one apply_moves since the last
            # check, so state.last_changed is the round's dirty region and
            # the certificate applies while the pre-move state was
            # connected, i.e. until the first break; anything it cannot
            # prove gets the full BFS (bit-identical outcome, just slower).
            if not (
                self.incremental_connectivity
                and not self.connectivity_lost
                and locally_connected_after(state.cells, state.last_changed)
            ):
                comps = connected_components(state.cells)
                if len(comps) > 1:
                    # Under FSYNC a break is a bug in the algorithm.  Under
                    # a schedule, breaking the algorithm's FSYNC safety
                    # argument is the experiment: record it and stop.
                    if schedule is None:
                        raise ConnectivityViolation(r, len(comps))
                    self.connectivity_lost = True
                    self.events.emit(
                        r, "connectivity_violation", components=len(comps)
                    )

        if schedule is not None:
            schedule.commit(active, remap=self.ledger.apply(moves))
            self._last_moves = moves
            if self._busy_until:
                cell_of = self.ledger.cell_of
                self._busy_until = {
                    t: due
                    for t, due in self._busy_until.items()
                    if t in cell_of and due > r
                }

        self.metrics.record(
            RoundMetrics(
                round_index=r,
                robots=len(state),
                merged=merged,
                diameter=state.diameter_chebyshev(),
                active_runs=getattr(controller, "active_run_count", None),
            )
        )
        self.round_index += 1
        return merged

    def gathered(self) -> bool:
        """All robots fit in the gathering square (the bounding-box
        test: a split state that still fits it counts as gathered)."""
        return is_gathered(self.state)

    def default_budget(self) -> int:
        """The linear budget of :func:`default_round_budget`."""
        return default_round_budget(self.robots_initial)

    def result_fields(self) -> Dict[str, Any]:
        """This engine's :class:`~repro.engine.protocols.RunResult`
        fields; the counters are ``None`` where they do not apply."""
        schedule = self.schedule
        faults = schedule.faults if schedule is not None else None
        byzantine = faults is not None and faults.byzantine_rate > 0.0
        return {
            "robots_initial": self.robots_initial,
            "robots_final": len(self.state),
            "final_state": self.state,
            "activations": (
                self.activations if schedule is not None else None
            ),
            "byzantine_actions": (
                self.byzantine_actions if byzantine else None
            ),
        }
