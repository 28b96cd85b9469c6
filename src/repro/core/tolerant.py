"""The connectivity-tolerant variant of the paper's gathering algorithm.

PR 4 showed — and the nondeterminism explorer certified — that the
stock algorithm's safety argument is an FSYNC theorem: under SSYNC
subset activation, partially executed merge patterns can disconnect the
swarm (61 of the 63 fixed pentominoes are breakable).  This module
hardens the algorithm with a *local subset-safety certificate*: a robot
defers its hop whenever executing an arbitrary subset of the admitted
moves could disconnect the swarm.

The certificate is the **stationary-core lemma**.  Let ``O`` be the
occupied cells, ``M`` a set of planned moves, and ``S = O − sources(M)``
the stationary core (robots guaranteed not to move this round).  If

1. ``S`` is nonempty and 4-connected,
2. every move's source has a 4-neighbor in ``S``, and
3. every move's target is in ``S`` or has a 4-neighbor in ``S``,

then *every* subset ``A ⊆ M`` preserves connectivity: after executing
``A``, each robot is either in ``S``, still at a source (4-adjacent to
``S`` by 2), or at a target (in or 4-adjacent to ``S`` by 3) — every
occupied cell touches the connected core, so the swarm is connected.
The quantifier over subsets is exactly what SSYNC adversaries (and the
explorer's exhaustive branching) exploit, which is why certification of
this variant reports zero breakable shapes *by construction*, with the
explorer as the machine-checked acceptance oracle.

Moves are admitted greedily in sorted source order: each planned move
joins the kept set iff the certificate still holds for the enlarged
set.  Greedy admission is monotone and deterministic (no fixpoint
oscillation), and it naturally keeps the *safe* fraction of a merge
pattern — e.g. the far-end bump mover whose target is an occupied cell
of the supported row — while deferring the movers whose safety depended
on FSYNC simultaneity.  Deferred robots simply retry in a later round:
progress slows by a constant factor, safety becomes unconditional.
"""

from __future__ import annotations

from typing import Dict, Mapping, Set

from repro.core.algorithm import GatherOnGrid
from repro.grid.connectivity import is_connected
from repro.grid.geometry import Cell, neighbors4
from repro.grid.occupancy import SwarmState


def certified_subset(
    occupied: Set[Cell], planned: Mapping[Cell, Cell]
) -> Dict[Cell, Cell]:
    """The greedily admitted subset of ``planned`` that satisfies the
    stationary-core certificate (module docstring) against ``occupied``.

    Pure: reads its arguments, mutates nothing observable — admission
    order is the sorted source order, so the result is a deterministic
    function of ``(occupied, planned)``.
    """
    kept: Dict[Cell, Cell] = {}
    for src, dst in sorted(planned.items()):
        trial = dict(kept)
        trial[src] = dst
        if _certificate_holds(occupied, trial):
            kept = trial
    return kept


def _certificate_holds(
    occupied: Set[Cell], moves: Mapping[Cell, Cell]
) -> bool:
    """Whether ``moves`` is subset-safe over ``occupied`` per the
    stationary-core lemma."""
    core = occupied - set(moves)
    if not core:
        return False
    if not is_connected(core):
        return False
    for src, dst in moves.items():
        if not any(nb in core for nb in neighbors4(src)):
            return False
        if dst not in core and not any(
            nb in core for nb in neighbors4(dst)
        ):
            return False
    return True


class TolerantGatherOnGrid(GatherOnGrid):
    """The paper's planner with the subset-safety admission filter.

    Identical bookkeeping to :class:`GatherOnGrid` — merges, runs,
    pipelining — but :meth:`plan_round` passes the
    stock plan through :func:`certified_subset` before returning it.
    The run manager's finalize path already tolerates unexecuted moves
    (the SSYNC schedules drop arbitrary subsets), so deferral needs no
    extra state: a deferred robot's pattern simply re-fires while it
    still matches.

    Emits a ``move_deferred`` event naming the deferred sources whenever
    the filter withholds at least one move.
    """

    def plan_round(
        self, state: SwarmState, round_index: int
    ) -> Mapping[Cell, Cell]:
        planned = dict(super().plan_round(state, round_index))
        kept = certified_subset(state.cells, planned)
        if len(kept) < len(planned):
            deferred = sorted(src for src in planned if src not in kept)
            self.events.emit(
                round_index, "move_deferred", robots=deferred
            )
        return kept
