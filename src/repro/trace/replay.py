"""Deterministic replay: re-run a recorded swarm and compare states.

The algorithm is deterministic (all tie-breaks are structural), so a replay
from the same initial cells must reproduce every round exactly; `verify_trace`
asserts that, catching any accidental nondeterminism (e.g. set-iteration
order leaking into decisions).

Checkpoint-and-resume rides on the same determinism: the whole
controller-side simulation state of the grid strategy is the swarm cells
plus the :class:`~repro.core.runs.RunManager` run table — everything
else (contours, start-site indexes, incremental caches) is a pure
function of the cells, rebuilt bit-identically on demand (the
equivalence suite pins incremental == full rescan).  So a checkpoint is
tiny (:func:`controller_checkpoint`), and :func:`resume_engine` restores
an FSYNC :class:`~repro.engine.scheduler.RoundEngine` from any
checkpointed trace row that continues the original trajectory exactly.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.core.algorithm import GatherOnGrid
from repro.core.config import AlgorithmConfig
from repro.core.runs import Run, RunFork
from repro.core.tolerant import TolerantGatherOnGrid
from repro.engine.scheduler import RoundEngine
from repro.engine.termination import run_engine
from repro.errors import InvariantError
from repro.grid.occupancy import SwarmState
from repro.trace.recorder import TraceRow

#: The grid-state controllers a checkpoint can restore into, by the
#: facade strategy key that builds them.  The explorer, witness
#: reconstruction, and certification all thread this key so the same
#: machinery certifies the stock algorithm and its tolerant variant.
GRID_CONTROLLERS = {
    "grid": GatherOnGrid,
    "tolerant": TolerantGatherOnGrid,
}


def grid_controller_class(strategy: str) -> type:
    """The controller class behind a grid-state strategy key."""
    try:
        return GRID_CONTROLLERS[strategy]
    except KeyError:
        raise KeyError(
            f"unknown grid-state strategy {strategy!r}; "
            f"available: {sorted(GRID_CONTROLLERS)}"
        ) from None


def replay(
    initial_cells: Sequence,
    rounds: int,
    cfg: Optional[AlgorithmConfig] = None,
) -> List[frozenset]:
    """Run the algorithm for at most ``rounds`` rounds, returning the
    per-round states (fewer when it gathers first)."""
    states: List[frozenset] = []
    run_engine(
        RoundEngine(SwarmState(initial_cells), GatherOnGrid(cfg)),
        max_rounds=rounds,
        on_round=lambda i, s: states.append(s.frozen()),
    )
    return states


def verify_trace(
    initial_cells: Sequence,
    trace: Sequence[TraceRow],
    cfg: Optional[AlgorithmConfig] = None,
) -> bool:
    """True iff re-running reproduces the trace exactly, round for round."""
    states = replay(initial_cells, len(trace), cfg)
    for row, state in zip(trace, states):
        if frozenset(row.cells) != state:
            return False
    return True


# ----------------------------------------------------------------------
# Checkpoint / resume
# ----------------------------------------------------------------------
def controller_checkpoint(controller: GatherOnGrid) -> dict:
    """The JSON-able run-table snapshot of a grid controller.

    A checkpoint is a :meth:`~repro.core.runs.RunManager.fork` taken
    between rounds, i.e. with no planned records: the live runs
    (frozen dataclasses, copied by value into lists) and the next run
    id.  Derived structures are deliberately absent; they are rebuilt
    from the swarm cells on resume.
    """
    fork = controller.run_manager.fork()
    if fork.planned:
        raise InvariantError(
            "controller checkpoint taken between plan_round and "
            "notify_applied; the planned records would be lost"
        )
    return {
        "next_id": fork.next_id,
        "runs": [
            [
                run.run_id,
                list(run.robot),
                list(run.prev),
                run.direction,
                run.axis,
                run.born_round,
            ]
            for run in fork.runs
        ],
    }


def checkpoint_fork(checkpoint: dict) -> RunFork:
    """The run-manager fork a :func:`controller_checkpoint` describes."""
    runs = [
        Run(
            run_id=int(row[0]),
            robot=(int(row[1][0]), int(row[1][1])),
            prev=(int(row[2][0]), int(row[2][1])),
            direction=int(row[3]),
            axis=str(row[4]),
            born_round=int(row[5]),
        )
        for row in checkpoint["runs"]
    ]
    runs.sort(key=lambda run: run.run_id)
    return RunFork((), tuple(runs), int(checkpoint["next_id"]))


def restore_controller(
    checkpoint: dict,
    cfg: Optional[AlgorithmConfig] = None,
    strategy: str = "grid",
) -> GatherOnGrid:
    """A fresh grid-state controller with the checkpointed run table
    (``strategy`` picks the class — stock ``grid`` or ``tolerant``)."""
    controller = grid_controller_class(strategy)(cfg)
    controller.run_manager.restore(checkpoint_fork(checkpoint))
    return controller


def resume_engine(
    row: TraceRow,
    cfg: Optional[AlgorithmConfig] = None,
    *,
    check_connectivity: bool = True,
) -> RoundEngine:
    """An FSYNC engine continuing from a checkpointed trace row.

    The recorder's ``on_round`` hook fires after a round is applied and
    the run table finalized, so the row is post-round state and the
    resumed engine starts at ``row.round_index + 1``.  Hand it to
    :func:`~repro.engine.termination.run_engine` with the *original*
    ``max_rounds``: the engine's default budget, like its
    ``robots_initial``, is derived from the row's (already shrunk)
    robot count.
    """
    if row.checkpoint is None:
        raise ValueError(
            f"trace row for round {row.round_index} carries no "
            f"checkpoint; resume needs a trace recorded with "
            f"TraceRecorder(checkpoint_fn=...)"
        )
    engine = RoundEngine(
        SwarmState(row.cells),
        restore_controller(row.checkpoint, cfg),
        check_connectivity=check_connectivity,
    )
    engine.round_index = row.round_index + 1
    return engine


def last_checkpoint(rows: Sequence[TraceRow]) -> Optional[TraceRow]:
    """The latest row carrying a checkpoint, or ``None``."""
    for row in reversed(rows):
        if row.checkpoint is not None:
            return row
    return None


# ----------------------------------------------------------------------
# SSYNC witness schedules (the nondeterminism explorer's artifacts)
# ----------------------------------------------------------------------
def replay_schedule(
    initial_cells: Sequence,
    schedule: Sequence,
    *,
    cfg: Optional[AlgorithmConfig] = None,
    k_fairness: Optional[int] = None,
    max_rounds: Optional[int] = None,
    strategy: str = "grid",
    on_round=None,
):
    """Re-drive an explicit activation schedule through the stock SSYNC
    scheduler (``activation="scripted"``).

    ``schedule`` is a per-round sequence of robot-token lists, as
    exported by :mod:`repro.explore` witnesses.  ``k_fairness`` defaults
    to ``len(schedule) + 2`` — large enough that fairness forcing can
    never perturb the script (no streak can reach the forcing threshold
    within the scripted rounds).  ``strategy`` selects the grid-state
    strategy under test (stock ``grid`` or ``tolerant``).  Returns the
    facade ``RunResult``.
    """
    from repro.api import simulate  # lazy: api imports this package

    if strategy not in GRID_CONTROLLERS:
        raise KeyError(
            f"schedule replay supports grid-state strategies only "
            f"({sorted(GRID_CONTROLLERS)}), got {strategy!r}"
        )
    return simulate(
        list(initial_cells),
        strategy=strategy,
        scheduler="ssync",
        config=cfg,
        activation="scripted",
        schedule=[list(entry) for entry in schedule],
        k_fairness=(
            k_fairness if k_fairness is not None else len(schedule) + 2
        ),
        max_rounds=max_rounds,
        on_round=on_round,
    )


def verify_schedule_trace(
    initial_cells: Sequence,
    schedule: Sequence,
    rows: Sequence,
    *,
    cfg: Optional[AlgorithmConfig] = None,
    k_fairness: Optional[int] = None,
    expect_terminal: Optional[str] = None,
    violation_round: Optional[int] = None,
    strategy: str = "grid",
) -> bool:
    """True iff replaying ``schedule`` reproduces ``rows`` exactly.

    ``rows`` is the expected per-round sorted cell list (one entry per
    scheduled round); the comparison is bit-identical, round for round.
    ``expect_terminal`` additionally requires that terminal event
    (``"connectivity_lost"`` / ``"gathered"``) in the replay's event
    log, and ``violation_round`` pins the round of the
    ``connectivity_violation`` event.
    """
    observed: List[tuple] = []
    result = replay_schedule(
        initial_cells,
        schedule,
        cfg=cfg,
        k_fairness=k_fairness,
        max_rounds=len(rows),
        strategy=strategy,
        on_round=lambda i, s: observed.append(tuple(sorted(s.cells))),
    )
    if len(observed) != len(rows):
        return False
    for expected, got in zip(rows, observed):
        if tuple(expected) != got:
            return False
    if expect_terminal is not None:
        if not result.events.of_kind(expect_terminal):
            return False
    if violation_round is not None:
        violations = result.events.of_kind("connectivity_violation")
        if [e.round_index for e in violations] != [violation_round]:
            return False
    return True
