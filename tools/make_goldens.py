"""Capture golden trajectories for the incremental-pipeline equivalence suite.

Run from the repo root::

    PYTHONPATH=src python tools/make_goldens.py

Writes ``tests/data/golden_trajectories.json``: per scenario, the round
count, a per-round hash of the swarm state, and a per-round hash of the
controller events.  The committed file was generated from the *seed*
implementation (commit aa9a9e6, full per-round rescans), so
``tests/test_incremental_equivalence.py`` proves the incremental pipeline
is bit-identical to the seed on every generator family.

Engine-terminal events (``gathered`` / ``budget_exhausted``) are excluded
from the event hashes: the seed never emitted them (the event-log bugfix
added them), and they are derived from the trajectory anyway.
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


#: Movement events — a pure function of the per-round moves.
CORE_EVENT_KINDS = frozenset({"fold", "merge"})


def _events_digest(events, round_index: int, kinds=None) -> str:
    """Digest of one round's events (optionally restricted to ``kinds``).

    Events within a round are sorted and ``run_id`` is dropped: an FSYNC
    round is simultaneous, so the emission order and run numbering are
    artifacts of site processing order, not part of the trajectory.
    """
    lines = sorted(
        f"{e.kind}:{sorted(i for i in e.data.items() if i[0] != 'run_id')!r}"
        for e in events
        if e.round_index == round_index
        and e.kind not in ENGINE_EVENT_KINDS
        and (kinds is None or e.kind in kinds)
    )
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()[:12]


def run_scenario(make_cells, cfg: AlgorithmConfig | None = None) -> dict:
    snapshots: list[str] = []
    result = gather(
        make_cells(),
        cfg,
        on_round=lambda i, state: snapshots.append(_state_digest(state.cells)),
    )
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


def main() -> int:
    out = {}
    for name in sorted(SCENARIOS):
        out[name] = run_scenario(SCENARIOS[name])
        print(f"{name}: rounds={out[name]['rounds']}", flush=True)
    path = os.path.join(
        os.path.dirname(__file__), "..", "tests", "data",
        "golden_trajectories.json",
    )
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
    print(f"wrote {os.path.normpath(path)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
