"""Equivalence of the incremental pipeline with full per-round rescans.

Two layers of guarantees:

1. **Incremental on == incremental off, everywhere.**  The dirty-region
   caches (:mod:`repro.core.incremental`), the localized connectivity
   check, and the cached run location must never change a trajectory —
   moves, rounds, merges, and events are compared bit-for-bit across a
   mixed scenario set covering every generator family.

2. **Both match the seed implementation** (commit aa9a9e6, captured in
   ``tests/data/golden_trajectories.json`` by ``tools/make_goldens.py``)
   — except where this PR's *run-start bugfix* intentionally changed
   behavior: on contours short enough that every start site sees every
   other (cycle length <= 2*viewing_radius + 2), sites are now admitted
   unconditionally as in the paper, because the seed's spacing filter
   could livelock such contours and only escaped through accidental
   hash-order entropy in its (non-canonical) boundary enumeration.  The
   scenarios whose trajectories or run lifecycles legitimately changed
   are listed explicitly below so any *unintended* divergence still
   fails.
"""

from __future__ import annotations

import functools
import io
import json
import os

import pytest

import repro.api
import repro.engine.scheduler
from repro.api import simulate
from repro.core.config import AlgorithmConfig
from repro.engine.scheduler import RoundEngine
from repro.engine.ssync_scheduler import ActivationSchedule, make_policy
from repro.grid.connectivity import is_connected, locally_connected_after
from repro.grid.occupancy import SwarmState
from repro.swarms.generators import ring
from repro.trace.recorder import load_trace

from tools.make_goldens import (
    SCENARIOS,
    SCHEDULE_FAMILIES,
    SCHEDULE_MAX_ROUNDS,
    SCHEDULE_MODELS,
    _state_digest,
    run_scenario,
)

GOLDEN_PATH = os.path.join(
    os.path.dirname(__file__), "data", "golden_trajectories.json"
)

#: Scenarios whose *moves* changed: hole-bearing swarms whose endgame (or
#: whole life, for small rings) runs in the short-contour regime where the
#: run-start bugfix admits more sites.  Everything else must be move-exact
#: vs the seed.
TRAJECTORY_CHANGED = {"ring12", "ring_72", "ring_160", "spiral_160"}

#: Scenarios with extra run_start/run_stop events from unconditional
#: short-contour starts (moves still bit-identical to the seed).
RUN_EVENTS_CHANGED = TRAJECTORY_CHANGED | {
    "blob_24",
    "blob_72",
    "diamond_ring6",
    "double_donut12",
    "h_9x5",
    "l_corridor10",
    "plus_24",
    "ring9_t2",
    "ring_24",
    "solid_24",
    "solid_72",
    "tree_24",
    "tree_72",
}

STATE_KEYS = ("rounds", "gathered", "robots_final", "final", "state_hashes")


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN_PATH) as fh:
        return json.load(fh)


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_incremental_matches_full_and_seed(name, golden):
    trace = io.StringIO()
    on = run_scenario(
        SCENARIOS[name], AlgorithmConfig(incremental=True), trace=trace
    )
    off = run_scenario(SCENARIOS[name], AlgorithmConfig(incremental=False))
    decoded = [
        _state_digest(row.cells)
        for row in load_trace(trace.getvalue().splitlines())
    ]

    # Layer 1: the incremental pipeline is bit-identical to full rescans.
    assert on == off, f"{name}: incremental mode changed the trajectory"

    # Layer 2: bit-identical to the seed implementation, modulo the
    # documented run-start bugfix.
    gold = golden[name]
    if name in TRAJECTORY_CHANGED:
        assert on["gathered"], f"{name}: must still gather"
        assert decoded == on["state_hashes"], f"{name}: trace decode"
    else:
        # The recorded trace decodes to the seed's states, round for
        # round.
        assert decoded == gold["state_hashes"], f"{name}: trace decode"
        for key in STATE_KEYS:
            assert on[key] == gold[key], f"{name}: {key} diverged from seed"
        # fold/merge events are derived from the moves: always preserved
        assert on["core_event_hashes"] == gold["core_event_hashes"]
        if name not in RUN_EVENTS_CHANGED:
            assert on["event_hashes"] == gold["event_hashes"], (
                f"{name}: run lifecycle events diverged from seed"
            )


def test_full_connectivity_mode_identical(monkeypatch):
    """The localized connectivity check never changes behavior: force the
    full BFS via the engine knob and compare states, terminal and
    component count.  FSYNC ``ring(10)`` has a hole and never
    disconnects; the setting of golden row ``grid/ssync_p05/blob_30/conn``
    ends ``connectivity_lost`` after 8 rounds."""

    def run(incremental_connectivity, cells, **options):
        monkeypatch.setattr(repro.api, "RoundEngine", functools.partial(
            RoundEngine, incremental_connectivity=incremental_connectivity
        ))
        states = []
        result = simulate(
            cells,
            strategy="grid",
            on_round=lambda i, s: states.append(s.frozen()),
            **options,
        )
        components = [
            e.data["components"]
            for e in result.events.of_kind("connectivity_violation")
        ]
        return states, list(result.events)[-1].kind, components

    fsync = run(True, ring(10), max_rounds=300)
    assert fsync[1:] == ("gathered", [])
    assert run(False, ring(10), max_rounds=300) == fsync

    ssync = dict(
        seed=3, max_rounds=SCHEDULE_MAX_ROUNDS, **SCHEDULE_MODELS["ssync_p05"]
    )
    lost = run(True, SCHEDULE_FAMILIES["blob_30"], **ssync)
    assert len(lost[0]) == 8 and lost[1] == "connectivity_lost"
    assert len(lost[2]) == 1 and lost[2][0] > 1
    assert run(False, SCHEDULE_FAMILIES["blob_30"], **ssync) == lost


def test_inconclusive_certificate_falls_back_to_bfs(monkeypatch):
    """A round that empties the whole top row of a closed loop leaves a U:
    still connected, but the arms meet only at the bottom, beyond every
    vacated cell's 3x3 window.  The certificate is inconclusive, and the
    one full BFS it triggers lets the round complete."""
    loop = {
        (x, y) for x in range(3) for y in range(4) if x != 1 or y in (0, 3)
    }
    top_row_down = {(0, 3): (0, 2), (1, 3): (0, 2), (2, 3): (2, 2)}

    class OneMove:
        def plan_round(self, state, round_index):
            return top_row_down if round_index == 0 else {}

    bfs_calls = []
    real_bfs = repro.engine.scheduler.connected_components
    monkeypatch.setattr(
        repro.engine.scheduler, "connected_components",
        lambda cells: bfs_calls.append(1) or real_bfs(cells),
    )
    engine = RoundEngine(SwarmState(loop), OneMove())
    assert engine.step() == 3
    state = engine.state
    assert state.cells == loop - set(top_row_down)
    assert not locally_connected_after(state.cells, state.last_changed)
    assert is_connected(state.cells) and bfs_calls == [1]


def test_step_past_connectivity_lost_matches_full_bfs():
    """The certificate is sound only from a connected pre-move state.
    A scheduled engine stepped past its first break must still report
    the split every round, exactly as the full-BFS engine does."""

    class Split:
        def plan_round(self, state, round_index):
            return {(1, 0): (1, 1)} if round_index == 0 else {}

    def run(incremental_connectivity):
        engine = RoundEngine(
            SwarmState([(0, 0), (1, 0), (2, 0)]),
            Split(),
            ActivationSchedule(make_policy("uniform", p=1.0), 8),
            incremental_connectivity=incremental_connectivity,
        )
        engine.step()
        engine.step()
        return [
            (e.round_index, e.data["components"])
            for e in engine.events.of_kind("connectivity_violation")
        ]

    assert run(True) == run(False) == [(0, 3), (1, 3)]
