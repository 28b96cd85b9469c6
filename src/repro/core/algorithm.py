"""The gathering controller (paper Figure 11).

Every round, conceptually at every robot (evaluated centrally over local
predicates — see :mod:`repro.core.view` for the locality audit):

1. **Merge** — if the robot is part of a merge pattern it hops with it
   (Section 3.1);
2. **Run operations** — a runner terminates per Table 1, passes an
   approaching run, or reshapes (fold) and hands its state onward
   (Sections 3.2/3.3);
3. **Start new runs** — every ``L`` rounds, robots at quasi-line endpoint
   corners (Start-A / Start-B) spawn new runs (Fig. 7).

The controller plugs into :class:`repro.engine.RoundEngine`.
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional

from repro.core.config import AlgorithmConfig
from repro.core.incremental import IncrementalPipeline
from repro.core.patterns import plan_merges
from repro.core.quasiline import run_start_sites
from repro.core.runs import RunManager
from repro.engine.events import EventLog
from repro.engine.protocols import RunResult
from repro.grid.geometry import Cell
from repro.grid.occupancy import SwarmState
from repro.grid.ring import RingSet


class GatherOnGrid:
    """Per-round planner for the paper's gathering algorithm."""

    def __init__(self, cfg: Optional[AlgorithmConfig] = None) -> None:
        self.cfg = cfg or AlgorithmConfig()
        self.run_manager = RunManager(self.cfg)
        self.events = EventLog()
        self._pipeline = (
            IncrementalPipeline(self.cfg) if self.cfg.incremental else None
        )

    # Instrumentation read by the engine's metrics.
    @property
    def active_run_count(self) -> int:
        return self.run_manager.active_run_count

    # ------------------------------------------------------------------
    def plan_round(
        self, state: SwarmState, round_index: int
    ) -> Mapping[Cell, Cell]:
        """The moves of every robot this round (source -> target).

        Rounds with no live run and no due start plan merges alone and
        leave the contours unread, so in incremental mode
        ``self._pipeline.ring_set`` is current only after the pipeline's
        ``contours()`` or ``start_sites()`` repaired it.
        """
        cfg = self.cfg
        occupied = state.cells
        pipeline = self._pipeline

        # Step 1: merge operations (state-free).
        if pipeline is not None:
            merge_moves = pipeline.plan_merges(state)
        else:
            merge_moves, _ = plan_merges(state, cfg)

        if not cfg.enable_runs:
            return merge_moves

        # Step 3 (checked before acting so fresh runs reshape this same
        # round, like the paper's start hop): start new runs every L rounds.
        starts_due = round_index % cfg.run_start_interval == 0 and (
            cfg.pipelining or round_index == 0
        )
        if not starts_due and not self.run_manager.runs:
            # Only runs read the contours: with none live and none due,
            # steps 2 and 3 are no-ops, so the rings stay unrepaired
            # (the pipeline catches up on the next read).
            return merge_moves

        if pipeline is not None:
            contours = pipeline.contours(state)
            # Audit trail of the incremental boundary maintenance: one
            # event per ring repair listing every spliced/re-traced arc
            # as a ``(cycle_id, arc_sides, removed_sides)`` triple
            # (cycle id -1 = full-rebuild fallback).  Diagnostic only —
            # excluded from the trajectory digests, since full-rescan
            # mode does no splicing.
            resplices = pipeline.take_resplices()
            if resplices:
                self.events.emit(
                    round_index,
                    "boundary_respliced",
                    arcs=[list(r) for r in resplices],
                )
        else:
            contours = RingSet.from_cells(occupied)
        located, lost = self.run_manager.locate(contours)

        if starts_due:
            # Incremental mode reads the persistent start-site index
            # (repaired per splice); full-rescan mode walks the contours.
            # Both admit bit-identical runs (the equivalence suite pins
            # it).
            sites = (
                pipeline.start_sites(state)
                if pipeline is not None
                else run_start_sites(contours.rings, cfg.start_straight_steps)
            )
            started = self.run_manager.start_runs(
                contours, sites, round_index, located
            )
            for run in started:
                self.events.emit(
                    round_index,
                    "run_start",
                    run_id=run.run_id,
                    robot=run.robot,
                    direction=run.direction,
                    axis=run.axis,
                )
            if started:
                located, lost = self.run_manager.locate(contours)

        # Step 2: run operations.
        run_moves = self.run_manager.plan(
            contours, occupied, merge_moves, located, lost, round_index
        )
        for robot, target in run_moves.items():
            self.events.emit(
                round_index, "fold", robot=robot, target=target
            )

        moves: Dict[Cell, Cell] = dict(merge_moves)
        moves.update(run_moves)  # key sets are disjoint by construction
        return moves

    # ------------------------------------------------------------------
    def notify_applied(
        self,
        state: SwarmState,
        round_index: int,
        moves: Mapping[Cell, Cell],
        merged: int,
    ) -> None:
        if merged:
            self.events.emit(round_index, "merge", removed=merged)
        if not self.cfg.enable_runs:
            return
        for run, reason in self.run_manager.finalize(moves, state.cells):
            if reason is not None:
                self.events.emit(
                    round_index,
                    "run_stop",
                    run_id=run.run_id,
                    reason=reason,
                    robot=run.robot,
                )


def gather(
    cells,
    cfg: Optional[AlgorithmConfig] = None,
    *,
    max_rounds: Optional[int] = None,
    check_connectivity: bool = True,
    on_round=None,
) -> RunResult:
    """Convenience entry point: gather a swarm, return the result.

    ``cells`` is any iterable of ``(x, y)`` robot positions forming a
    connected swarm.  See :class:`repro.core.config.AlgorithmConfig` for
    the paper's constants and the ablation knobs.

    The quickstart spelling of ``simulate(cells, config=cfg)``: the
    facade (:func:`repro.api.simulate`) is the canonical entry point and
    the one that also runs every baseline; this wrapper returns its
    :class:`~repro.engine.protocols.RunResult` unchanged.
    """
    from repro.api import simulate

    return simulate(
        cells,
        strategy="grid",
        config=cfg,
        max_rounds=max_rounds,
        check_connectivity=check_connectivity,
        on_round=on_round,
    )
