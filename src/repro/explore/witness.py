"""Witness schedules: from DAG paths to replayable artifacts.

A path through the exploration DAG is an *abstract* schedule — per-round
activation choices over canonical frames.  :func:`build_witness` turns
it back into a concrete one: it re-drives the grid controller from the
real initial cells, maps each canonical choice through the accumulated
translation offsets, and follows robot identity with the engine's own
:class:`~repro.engine.scheduler.TokenLedger` (integer tokens over the
sorted initial cells; merge groups keep the smallest).  The result is a
per-round list of activated tokens that the stock SSYNC scheduler
replays bit-identically via the ``scripted`` activation policy (see
:func:`repro.trace.replay.replay_schedule`).

Fairness accounting rides along: the witness feeds its schedule through
an :class:`~repro.engine.ssync_scheduler.ActivationSchedule`, whose
streak bookkeeping is the engine's, and reports ``fairness_k`` — the
smallest ``k_fairness`` under which the stock schedule replays the
witness *without* force-activating anybody.  A
connectivity witness with ``fairness_k = K`` is a constructive proof
that a K-fair SSYNC adversary can break the algorithm's safety.

Serialization is the trace JSONL format (header + one sorted-cell row
per round), with the schedule and verdict riding in the header meta —
plain :func:`repro.trace.recorder.load_trace` readers still parse the
rows.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.core.config import AlgorithmConfig
from repro.engine.scheduler import TokenLedger
from repro.engine.ssync_scheduler import ActivationSchedule, ScriptedActivation
from repro.errors import InvariantError
from repro.explore.driver import Edge, StateDag
from repro.grid.geometry import Cell
from repro.grid.occupancy import SwarmState
from repro.trace.replay import grid_controller_class


@dataclass
class Witness:
    """A concrete, replayable SSYNC schedule with its expected trace."""

    initial: Tuple[Cell, ...]
    #: Per-round activated token sets (sorted tuples), engine semantics.
    schedule: List[Tuple[int, ...]]
    #: Expected post-round cell sets (sorted tuples), one per round.
    rows: List[Tuple[Cell, ...]]
    #: ``"connectivity_lost"`` / ``"gathered"`` / ``"open"`` (a
    #: non-terminal path, e.g. a livelock prefix).
    terminal: str
    violation_round: Optional[int]
    #: Smallest ``k_fairness`` replaying this schedule unforced.
    fairness_k: int
    #: Activated mover cells per round, real frame (diagnostics).
    choices: List[Tuple[Cell, ...]] = field(default_factory=list)
    #: Grid-state strategy the schedule was built against (``"grid"``
    #: or ``"tolerant"``); replay uses the same controller.
    strategy: str = "grid"

    @property
    def rounds(self) -> int:
        return len(self.schedule)


def build_witness(
    dag: StateDag,
    edges: Optional[List[Edge]] = None,
    *,
    target=None,
    cfg: Optional[AlgorithmConfig] = None,
) -> Witness:
    """Reconstruct the concrete witness for a DAG path.

    Pass either ``edges`` (an explicit path from the root, e.g. a
    :meth:`~repro.explore.driver.StateDag.worst_case` path) or
    ``target`` (a node key; the BFS-tree path is used).
    """
    if edges is None:
        if target is None:
            raise ValueError("build_witness needs edges or a target key")
        edges = dag.edge_path(target)
    if getattr(dag, "symmetry", "translation") != "translation":
        raise ValueError(
            f"witness reconstruction needs exact (translation-only) "
            f"frames; this DAG was deduped with "
            f"symmetry={dag.symmetry!r} — re-explore with "
            f"symmetry='translation' to extract schedules"
        )
    strategy = getattr(dag, "strategy", "grid")
    controller = grid_controller_class(strategy)(cfg or dag.cfg)
    state = SwarmState(list(dag.initial_cells))
    ox, oy = dag.root_offset

    ledger = TokenLedger(dag.initial_cells)
    script = ScriptedActivation()
    # A fairness bound no streak can reach within the path: nobody is
    # forced, so the streaks measure what the witness itself needs.
    activation = ActivationSchedule(script, k_fairness=len(edges) + 2)
    max_idle = 0

    schedule: List[Tuple[int, ...]] = []
    rows: List[Tuple[Cell, ...]] = []
    choices: List[Tuple[Cell, ...]] = []
    for round_index, edge in enumerate(edges):
        chosen = {(x + ox, y + oy) for x, y in edge.choice}
        planned = dict(controller.plan_round(state, round_index))
        if not chosen <= set(planned):
            raise InvariantError(
                f"witness choice {sorted(chosen)} is not a subset of the "
                f"round-{round_index} plan {sorted(planned)} — the DAG "
                f"and the concrete replay disagree"
            )
        active = frozenset(ledger.id_at[c] for c in chosen)
        roster = ledger.roster()
        idle = [activation.streak_of(t) for t in roster if t not in active]
        if idle:
            max_idle = max(max_idle, max(idle))
        schedule.append(tuple(sorted(active)))
        choices.append(tuple(sorted(chosen)))
        script.rounds.append(active)
        selected = activation.select(round_index, roster)

        moves = {c: planned[c] for c in sorted(chosen)}
        merged = state.apply_moves(moves)
        controller.notify_applied(state, round_index, moves, merged)
        rows.append(tuple(sorted(state.cells)))
        activation.commit(selected, remap=ledger.apply(moves))

        ex, ey = edge.offset
        ox, oy = ox + ex, oy + ey

    if edges:
        final = dag.nodes[edges[-1].child]
        status = final.status
    else:
        status = dag.nodes[dag.root].status
    terminal = {
        "disconnected": "connectivity_lost",
        "gathered": "gathered",
    }.get(status, "open")
    return Witness(
        initial=dag.initial_cells,
        schedule=schedule,
        rows=rows,
        terminal=terminal,
        violation_round=(
            len(edges) - 1 if terminal == "connectivity_lost" else None
        ),
        # No forcing iff every pre-activation streak stays strictly
        # below k_fairness - 1.
        fairness_k=max_idle + 2,
        choices=choices,
        strategy=strategy,
    )


# ----------------------------------------------------------------------
# Serialization (trace JSONL format)
# ----------------------------------------------------------------------
def save_witness(witness: Witness, fh) -> None:
    """Write the witness as a JSONL trace with header metadata."""
    header = {
        "type": "header",
        "kind": "ssync_witness",
        "strategy": witness.strategy,
        "scheduler": "ssync",
        "activation": "scripted",
        "n": len(witness.initial),
        "initial": [list(c) for c in witness.initial],
        "schedule": [list(r) for r in witness.schedule],
        "fairness_k": witness.fairness_k,
        "terminal": witness.terminal,
        "violation_round": witness.violation_round,
    }
    fh.write(json.dumps(header) + "\n")
    for round_index, cells in enumerate(witness.rows):
        fh.write(
            json.dumps(
                {
                    "type": "round",
                    "round": round_index,
                    "cells": [list(c) for c in cells],
                }
            )
            + "\n"
        )


def load_witness(lines) -> Witness:
    """Parse a witness written by :func:`save_witness`."""
    from repro.trace.recorder import read_trace

    meta, rows = read_trace(lines)
    if meta.get("kind") != "ssync_witness":
        raise ValueError(
            f"not an ssync_witness trace (kind={meta.get('kind')!r})"
        )
    return Witness(
        initial=tuple(
            (int(x), int(y)) for x, y in meta["initial"]
        ),
        schedule=[
            tuple(int(t) for t in r) for r in meta["schedule"]
        ],
        rows=[row.cells for row in rows],
        terminal=str(meta["terminal"]),
        violation_round=(
            int(meta["violation_round"])
            if meta.get("violation_round") is not None
            else None
        ),
        fairness_k=int(meta["fairness_k"]),
        strategy=str(meta.get("strategy", "grid")),
    )


def verify_witness(
    witness: Witness, cfg: Optional[AlgorithmConfig] = None
) -> bool:
    """True iff the stock SSYNC scheduler replays the witness
    bit-identically: every per-round cell set matches and the expected
    terminal event fires (at the expected round for violations)."""
    from repro.trace.replay import verify_schedule_trace

    return verify_schedule_trace(
        witness.initial,
        witness.schedule,
        witness.rows,
        cfg=cfg,
        k_fairness=witness.fairness_k,
        expect_terminal=(
            witness.terminal if witness.terminal != "open" else None
        ),
        violation_round=witness.violation_round,
        strategy=witness.strategy,
    )
