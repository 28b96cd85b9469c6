"""Empirical checks of the paper's Lemma 3 run invariants.

Lemma 3 guarantees, for every run until it terminates:

1. every round it moves one robot further in moving direction;
4. it cannot see other sequent runs in front of it;
6. good pairs stay good pairs (their folds keep enabling the merge).

We track live runs across a long simulation and assert the observable
counterparts of these invariants on the real event/position stream.
"""

import pytest

from repro.core.algorithm import GatherOnGrid
from repro.core.config import AlgorithmConfig
from repro.engine.scheduler import RoundEngine
from repro.grid.geometry import chebyshev
from repro.grid.occupancy import SwarmState
from repro.swarms.generators import double_donut, ring, spiral

CFG = AlgorithmConfig()


def _simulate(cells, rounds):
    """Per-round snapshots of run positions: {run_id: [(round, robot)]}."""
    ctrl = GatherOnGrid(CFG)
    engine = RoundEngine(SwarmState(cells), ctrl)
    tracks = {}
    for i in range(rounds):
        if engine.state.is_gathered():
            break
        engine.step()
        for r in ctrl.run_manager.runs.values():
            tracks.setdefault(r.run_id, []).append((i, r.robot))
    return ctrl, tracks


@pytest.mark.parametrize(
    "cells,runs_expected",
    [
        (ring(20), True),
        (ring(32), True),
        (spiral(6), True),
        # the donut is merge-rich: it may gather on merges alone before any
        # run gets started, in which case there is nothing to track
        (double_donut(14), False),
    ],
    ids=["ring20", "ring32", "spiral", "donut"],
)
def test_invariant1_unit_speed(cells, runs_expected):
    """Lemma 3.1: a run's holder changes every round, and consecutive
    holders stay spatially close (one boundary robot per round means
    Chebyshev distance at most 2 after the holder's own fold)."""
    _, tracks = _simulate(cells, 60)
    if runs_expected:
        assert tracks, "no runs observed"
    for run_id, track in tracks.items():
        for (r0, c0), (r1, c1) in zip(track, track[1:]):
            if r1 == r0 + 1:  # consecutive observations
                assert c1 != c0, f"run {run_id} stood still in round {r1}"
                assert chebyshev(c0, c1) <= 2, (
                    f"run {run_id} teleported {c0} -> {c1}"
                )


@pytest.mark.parametrize(
    "cells", [ring(24), double_donut(14)], ids=["ring", "donut"]
)
def test_invariant4_sequent_spacing(cells):
    """Lemma 3.4: same-direction runs on one contour never crowd below the
    viewing distance for long (the follower stops within one round)."""
    ctrl = GatherOnGrid(CFG)
    engine = RoundEngine(SwarmState(cells), ctrl)
    from repro.grid.ring import RingSet

    violations = 0
    for _ in range(60):
        if engine.state.is_gathered():
            break
        engine.step()
        contours = RingSet.from_cells(engine.state)
        located, _ = ctrl.run_manager.locate(contours)
        runs = ctrl.run_manager.runs
        by_boundary = {}
        for rid, loc in located.items():
            pos = loc.ring.positions_map()[loc.node]
            by_boundary.setdefault(loc.b_idx, []).append((pos, rid))
        for b, entries in by_boundary.items():
            n = len(contours.rings[b])
            for p1, r1 in entries:
                for p2, r2 in entries:
                    if r1 >= r2:
                        continue
                    if runs[r1].direction != runs[r2].direction:
                        continue
                    d = min((p2 - p1) % n, (p1 - p2) % n)
                    # strictly-follower pairs closer than half the cycle
                    # and within view may persist at most transiently
                    if d < 3 and 2 * d < n:
                        violations += 1
    assert violations <= 2, f"{violations} crowding violations"


def test_invariant6_good_pairs_enable_merges():
    """Lemma 3.6 + Lemma 2a: every simulation phase that starts runs on a
    mergeless ring ends in a merge (good pairs deliver)."""
    ctrl = GatherOnGrid(CFG)
    engine = RoundEngine(SwarmState(ring(24)), ctrl)
    while not engine.state.is_gathered() and engine.round_index < 2000:
        engine.step()
    assert engine.state.is_gathered()
    starts = ctrl.events.rounds_with("run_start")
    merges = ctrl.events.rounds_with("merge")
    assert starts and merges
    # after the first run start, a merge follows within ~n rounds
    n = 92
    first_start = starts[0]
    assert any(
        first_start < m <= first_start + n + CFG.run_start_interval
        for m in merges
    )
