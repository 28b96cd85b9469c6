#!/usr/bin/env python3
"""Watch a swarm gather, round by round, as terminal animation frames.

Shows the paper's mechanics live: runners (R) travel along the boundary
folding corners inward; once the reshaped walls come close enough, merge
patterns fire and the swarm implodes.

The engine is ``RoundEngine``, the one round loop behind the ``fsync``,
``ssync`` and ``async-lcm`` schedulers; passing an ``ActivationSchedule``
as its third argument watches the same swarm under SSYNC.

Run:  python examples/watch_gathering.py [shape] [size]
      shapes: ring (default), line, solid, blob, spiral, donut
"""

import sys

from repro import SwarmState
from repro.core import AlgorithmConfig, GatherOnGrid
from repro.engine import RoundEngine
from repro.swarms import (
    double_donut,
    line,
    random_blob,
    ring,
    solid_rectangle,
    spiral,
)
from repro.viz import render_with_marks

SHAPES = {
    "ring": lambda n: ring(max(6, n)),
    "line": lambda n: line(max(4, n * 2)),
    "solid": lambda n: solid_rectangle(n, n),
    "blob": lambda n: random_blob(n * n // 2, seed=7),
    "spiral": lambda n: spiral(max(3, n // 2)),
    "donut": lambda n: double_donut(max(10, n)),
}


def main() -> None:
    shape = sys.argv[1] if len(sys.argv) > 1 else "ring"
    size = int(sys.argv[2]) if len(sys.argv) > 2 else 14
    cells = SHAPES[shape](size)

    ctrl = GatherOnGrid(AlgorithmConfig())
    engine = RoundEngine(SwarmState(cells), ctrl)

    frame = 0
    while not engine.state.is_gathered() and frame < 4000:
        marks = {r.robot: "R" for r in ctrl.run_manager.runs.values()}
        print(
            f"\n=== round {frame}: {len(engine.state)} robots, "
            f"{ctrl.active_run_count} active runs ==="
        )
        print(render_with_marks(engine.state, marks))
        engine.step()
        frame += 1

    print(f"\n=== gathered after {frame} rounds ===")
    print(render_with_marks(engine.state, {}))
    stops = {}
    for e in ctrl.events.of_kind("run_stop"):
        stops[e.data["reason"]] = stops.get(e.data["reason"], 0) + 1
    print(
        f"\nrun starts: {len(ctrl.events.of_kind('run_start'))}, "
        f"folds: {len(ctrl.events.of_kind('fold'))}, stops: {stops}"
    )


if __name__ == "__main__":
    main()
