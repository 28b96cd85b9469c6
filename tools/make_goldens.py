"""Capture golden trajectories for the equivalence suites.

Run from the repo root::

    PYTHONPATH=src python tools/make_goldens.py             # trajectories
    PYTHONPATH=src python tools/make_goldens.py schedules   # schedules

``trajectories`` writes ``tests/data/golden_trajectories.json``: per
scenario, the round count, a per-round hash of the swarm state, and a
per-round hash of the controller events.  The committed file was
generated from the *seed* implementation (commit aa9a9e6, full per-round
rescans), so ``tests/test_incremental_equivalence.py`` proves the
incremental pipeline is bit-identical to the seed on every generator
family.  Do not regenerate it: later event-schema changes make a fresh
capture differ from the seed's.

Engine-terminal events (``gathered`` / ``budget_exhausted``) are excluded
from the event hashes: the seed never emitted them (the event-log bugfix
added them), and they are derived from the trajectory anyway.

``schedules`` writes ``tests/data/golden_schedules.json``: the same
per-round state and event hashes for the non-FSYNC time models (SSYNC
policies, faults, byzantine robots, async-lcm staleness) over small
swarms with a round cap, plus each run's activation and byzantine
counters and its terminal event.  It also pins the self-clocked
baselines (Euclidean go-to-center, open and closed chains) under fsync
and every model that accepts them, and the async greedy under the fair
sequential scheduler (``async``).  ``tests/test_golden_schedules.py``
replays every row, so a change that reorders one activation, fault or
staleness draw fails a test instead of passing the determinism checks.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys

# reprolint: ok[F1] golden capture intentionally pins the legacy shim so
# the shim's own behavior stays under test.
from repro.core.algorithm import gather
from repro.core.config import AlgorithmConfig
from repro.engine.protocols import Scenario
from repro.engine.termination import TERMINAL_KINDS
from repro.swarms.generators import (
    FAMILIES,
    comb,
    diamond_ring,
    double_donut,
    family,
    h_shape,
    l_corridor,
    ring,
    spiral,
    staircase_corridor,
)
from repro.trace.recorder import TraceRecorder

#: Non-trajectory event kinds, excluded from golden hashes: engine
#: terminals (the seed never emitted them), the incremental pipeline's
#: ``boundary_respliced`` audit events (diagnostics of *how* boundaries
#: were maintained — full-rescan mode does no splicing, so they cannot be
#: part of the trajectory comparison).
ENGINE_EVENT_KINDS = frozenset(
    {"gathered", "budget_exhausted", "boundary_respliced"}
)

SCENARIOS = {
    # every generator family, two sizes each
    **{
        f"{name}_{n}": (lambda name=name, n=n: family(name, n))
        for name in sorted(FAMILIES)
        for n in (24, 72)
    },
    # larger instances with long mergeless phases
    "ring_160": lambda: family("ring", 160),
    "spiral_160": lambda: family("spiral", 160),
    "blob_300": lambda: family("blob", 300),
    # hole-bearing and degenerate stress shapes
    "ring12": lambda: ring(12),
    "ring9_t2": lambda: ring(9, 2),
    "double_donut12": lambda: double_donut(12),
    "diamond_ring6": lambda: diamond_ring(6),
    "spiral3_g2": lambda: spiral(3, 2),
    "stair_corridor8": lambda: staircase_corridor(8),
    "comb5x4": lambda: comb(5, 4),
    "h_9x5": lambda: h_shape(9, 5),
    "l_corridor10": lambda: l_corridor(10, 2),
}


def _state_digest(cells) -> str:
    h = hashlib.sha256(repr(sorted(cells)).encode())
    return h.hexdigest()[:12]


def _point_digest(points) -> str:
    """:func:`_state_digest` of Euclidean points rounded to 6 decimals.

    Their trajectory goes through ``np.hypot`` and ``math.hypot``, whose
    last bit may differ between C libraries and Python versions.  Adding
    ``0.0`` folds ``-0.0`` into ``0.0``."""
    return _state_digest(
        (round(x, 6) + 0.0, round(y, 6) + 0.0) for x, y in points
    )


#: Movement events — a pure function of the per-round moves.
CORE_EVENT_KINDS = frozenset({"fold", "merge"})


def _events_digest(events, round_index: int, kinds=None) -> str:
    """Digest of one round's events (optionally restricted to ``kinds``).

    Events within a round are sorted and ``run_id`` is dropped: an FSYNC
    round is simultaneous, so the emission order and run numbering are
    artifacts of site processing order, not part of the trajectory.
    """
    return _digest(
        _event_line(e)
        for e in events
        if e.round_index == round_index
        and e.kind not in ENGINE_EVENT_KINDS
        and (kinds is None or e.kind in kinds)
    )


def _event_line(e) -> str:
    data = sorted(i for i in e.data.items() if i[0] != "run_id")
    return f"{e.kind}:{data!r}"


def _digest(lines) -> str:
    return hashlib.sha256("\n".join(sorted(lines)).encode()).hexdigest()[:12]


def run_scenario(
    make_cells, cfg: AlgorithmConfig | None = None, trace=None
) -> dict:
    """Gather one scenario; ``trace`` (a text buffer) also records the
    run's JSONL trace, which the equivalence suite decodes."""
    snapshots: list[str] = []
    recorder = TraceRecorder(trace) if trace is not None else None

    def on_round(i, state):
        snapshots.append(_state_digest(state.cells))
        if recorder is not None:
            recorder(i, state)

    result = gather(make_cells(), cfg, on_round=on_round)
    event_hashes = [
        _events_digest(result.events, i) for i in range(result.rounds)
    ]
    core_event_hashes = [
        _events_digest(result.events, i, CORE_EVENT_KINDS)
        for i in range(result.rounds)
    ]
    return {
        "rounds": result.rounds,
        "gathered": result.gathered,
        "robots_final": result.robots_final,
        "final": sorted(map(list, result.final_state.cells)),
        "state_hashes": snapshots,
        "event_hashes": event_hashes,
        "core_event_hashes": core_event_hashes,
    }


# ----------------------------------------------------------------------
# Non-FSYNC schedules
# ----------------------------------------------------------------------
#: Scheduler settings of the schedule goldens: every activation policy,
#: the fault layer, byzantine robots, and async-lcm with and without
#: staleness.
SCHEDULE_MODELS = {
    "ssync_p05": dict(scheduler="ssync", activation_p=0.5),
    "ssync_p1": dict(scheduler="ssync", activation_p=1.0),
    "round_robin_k3": dict(
        scheduler="ssync", activation="round_robin", rr_k=3
    ),
    "adversarial_k4": dict(
        scheduler="ssync", activation="adversarial", k_fairness=4
    ),
    "faulty_sleep_crash": dict(
        scheduler="ssync-faulty", sleep_rate=0.05, crash_rate=0.01
    ),
    "byzantine_02": dict(
        scheduler="ssync", activation_p=0.9, byzantine_rate=0.2
    ),
    "async_lcm_d0": dict(
        scheduler="async-lcm", staleness=0, activation_p=0.8
    ),
    "async_lcm_d2": dict(
        scheduler="async-lcm", staleness=2, activation_p=0.8
    ),
}

SCHEDULE_STRATEGIES = ("grid", "tolerant", "async_greedy")

#: ``blob_30`` is where byzantine ``stale`` lies pass the legality
#: checks and actually change what honest robots see.
SCHEDULE_FAMILIES = {
    "ring_20": Scenario(family="ring", n=16),
    "blob_30": Scenario(family="blob", n=30, seed=5),
    "spiral_19": Scenario(family="spiral", n=16),
}

#: Round cap of every schedule golden run.
SCHEDULE_MAX_ROUNDS = 60

#: The self-clocked baselines, one scenario each.
STEPPED_FAMILIES = {
    "euclidean": ("circle_12", Scenario(family="circle", n=12)),
    "chain": ("hairpin_21", Scenario(family="hairpin", n=21)),
    "closed_chain": ("rectangle_16", Scenario(family="rectangle", n=16)),
}

#: Their time models: fsync plus every schedule model except byzantine
#: faults and staleness above 0, which reject self-clocked programs.
STEPPED_MODELS = {
    "fsync": dict(scheduler="fsync"),
    **{
        name: model
        for name, model in SCHEDULE_MODELS.items()
        if name not in ("byzantine_02", "async_lcm_d2")
    },
}

#: Row name -> (strategy, scheduler options, scenario, connectivity
#: check).  Self-clocked programs check no connectivity, so their rows
#: carry no conn/noconn suffix.
SCHEDULE_SCENARIOS = {
    f"{strategy}/{model}/{fam}/{'conn' if check else 'noconn'}": (
        strategy, SCHEDULE_MODELS[model], SCHEDULE_FAMILIES[fam], check,
    )
    for strategy in SCHEDULE_STRATEGIES
    for model in sorted(SCHEDULE_MODELS)
    for fam in sorted(SCHEDULE_FAMILIES)
    for check in (True, False)
}
SCHEDULE_SCENARIOS.update(
    (
        f"{strategy}/{model}/{fam}",
        (strategy, STEPPED_MODELS[model], scenario, True),
    )
    for strategy, (fam, scenario) in STEPPED_FAMILIES.items()
    for model in sorted(STEPPED_MODELS)
)
#: The fair sequential scheduler, which only the async greedy accepts.
SCHEDULE_SCENARIOS.update(
    (
        f"async_greedy/async/{fam}/{'conn' if check else 'noconn'}",
        ("async_greedy", dict(scheduler="async"), SCHEDULE_FAMILIES[fam],
         check),
    )
    for fam in sorted(SCHEDULE_FAMILIES)
    for check in (True, False)
)


def schedule_digest(name: str):
    """The state digest of :data:`SCHEDULE_SCENARIOS` row ``name``."""
    if SCHEDULE_SCENARIOS[name][0] == "euclidean":
        return _point_digest
    return _state_digest


def _round_event_hashes(events, rounds: int) -> list:
    """:func:`_events_digest` of every round, in one pass over the log.

    Only the ``boundary_respliced`` audit is left out in effect: the
    terminal events of :data:`ENGINE_EVENT_KINDS` fall after the last
    round."""
    lines: list = [[] for _ in range(rounds)]
    for e in events:
        if e.kind not in ENGINE_EVENT_KINDS and e.round_index < rounds:
            lines[e.round_index].append(_event_line(e))
    return [_digest(row) for row in lines]


def run_schedule_scenario(name: str, trace=None) -> dict:
    """Simulate one :data:`SCHEDULE_SCENARIOS` row; returns its record.
    ``trace`` (a text buffer) also records the run's JSONL trace."""
    from repro.api import simulate

    strategy, model, scenario, check = SCHEDULE_SCENARIOS[name]
    digest = schedule_digest(name)
    snapshots: list = []
    result = simulate(
        scenario,
        strategy=strategy,
        seed=3,
        max_rounds=SCHEDULE_MAX_ROUNDS,
        check_connectivity=check,
        on_round=lambda i, s: snapshots.append(digest(s.cells)),
        trace=trace,
        **model,
    )
    terminals = [e.kind for e in result.events if e.kind in TERMINAL_KINDS]
    return {
        "rounds": result.rounds,
        "gathered": result.gathered,
        "terminal": terminals[-1],
        "activations": result.activations,
        "byzantine_actions": result.byzantine_actions,
        "state_hashes": snapshots,
        "event_hashes": _round_event_hashes(result.events, result.rounds),
    }


def _write(filename: str, out: dict) -> None:
    path = os.path.join(
        os.path.dirname(__file__), "..", "tests", "data", filename
    )
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
    print(f"wrote {os.path.normpath(path)}")


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    target = args[0] if args else "trajectories"
    if target == "trajectories":
        out = {}
        for name in sorted(SCENARIOS):
            out[name] = run_scenario(SCENARIOS[name])
            print(f"{name}: rounds={out[name]['rounds']}", flush=True)
        _write("golden_trajectories.json", out)
    elif target == "schedules":
        out = {
            name: run_schedule_scenario(name) for name in SCHEDULE_SCENARIOS
        }
        _write("golden_schedules.json", out)
    else:
        print(
            f"usage: make_goldens.py [trajectories|schedules], "
            f"not {target!r}",
            file=sys.stderr,
        )
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
