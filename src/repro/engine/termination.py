"""How a run ends: the one run loop, its terminal rule and round budgets.

:func:`run_engine` drives every time model to its end.  It steps one of
three engine kinds — :class:`~repro.engine.scheduler.RoundEngine` (the
grid time models), :class:`~repro.engine.async_scheduler.AsyncEngine`
(the fair sequential scheduler) and the facade's stepped engine over a
self-clocked program (:mod:`repro.api`) — through the same surface:

* ``state``, ``round_index``, ``metrics`` and ``events``;
* ``connectivity_lost`` — set when a round broke connectivity and the
  engine reports that as an outcome instead of raising;
* ``terminal_round`` — the round of the last terminal event the loop
  emitted (``None`` before the first), which the loop keeps;
* ``step()`` — one round;
* ``gathered()`` — whether the workload reached its goal;
* ``default_budget()`` — the round budget when the caller sets none;
* ``result_fields()`` — the engine's :class:`RunResult` fields
  (``robots_initial``, ``robots_final``, ``final_state`` and the
  optional counters).
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from repro.constants import GATHER_SQUARE
from repro.engine.protocols import RunResult
from repro.grid.occupancy import SwarmState

#: The event kinds that end a run, in the loop's precedence: the first
#: that holds names the end.  Each run ends with one of them.
TERMINAL_KINDS = ("gathered", "connectivity_lost", "budget_exhausted")


def is_gathered(state: SwarmState) -> bool:
    """Gathering is complete when all robots fit in a 2x2 area (paper
    Section 3.2: a 2x2 cluster cannot be simplified in FSYNC); the grid
    engines' ``gathered()``."""
    return state.is_gathered(GATHER_SQUARE)


def default_round_budget(n_robots: int, slack: int = 200) -> int:
    """A generous linear round budget for simulations.

    Theorem 1 bounds the running time by ``2 n L + n`` with ``L = 22``, i.e.
    ``45 n``.  We default to ``slack * n + slack`` so that even configurations
    with poor constants terminate, while an accidental super-linear regression
    still trips the budget in tests rather than hanging.
    """
    return slack * max(n_robots, 1) + slack


def run_engine(
    engine: Any,
    *,
    max_rounds: Optional[int] = None,
    on_round: Optional[Callable[[int, Any], None]] = None,
) -> RunResult:
    """Step ``engine`` until its run ends; returns the outcome.

    The run ends at the first of: the workload is gathered, a round
    broke connectivity (``connectivity_lost``), or ``round_index``
    reaches the budget — ``max_rounds``, else the engine's
    ``default_budget()``.  A run that starts gathered takes no round.
    ``on_round(round_index, state)`` is called after every round.

    The terminal event, the first of :data:`TERMINAL_KINDS` that holds,
    is emitted at ``round_index`` (the number of rounds executed): the
    log records how the run ended, not only what happened in it.  A
    resumed engine that took new rounds logs a new terminal; calling
    the loop again without a new round adds none.

    ``RunResult.strategy`` and ``.scheduler`` are left empty for the
    caller (:func:`repro.api.simulate` fills them in).
    """
    budget = engine.default_budget() if max_rounds is None else max_rounds
    gathered = engine.gathered()
    while (
        not gathered
        and not engine.connectivity_lost
        and engine.round_index < budget
    ):
        round_index = engine.round_index
        engine.step()
        if on_round is not None:
            on_round(round_index, engine.state)
        gathered = engine.gathered()
    if gathered:
        terminal = "gathered"
    elif engine.connectivity_lost:
        terminal = "connectivity_lost"
    else:
        terminal = "budget_exhausted"
    rounds = engine.round_index
    fields = engine.result_fields()
    if engine.terminal_round != rounds:
        engine.events.emit(
            rounds, terminal, rounds=rounds, robots=fields["robots_final"]
        )
        engine.terminal_round = rounds
    return RunResult(
        strategy="",
        scheduler="",
        gathered=gathered,
        rounds=rounds,
        metrics=engine.metrics,
        events=engine.events,
        **fields,
    )
