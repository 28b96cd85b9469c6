"""repro — Asymptotically Optimal Gathering on a Grid (SPAA 2016).

A production-quality reproduction of Cord-Landwehr, Fischer, Jung and
Meyer auf der Heide's O(n) FSYNC local gathering algorithm for robot swarms
on the 2-D grid, together with all substrates (grid world, FSYNC/ASYNC
engines, boundary machinery), the baselines the paper compares against, and
a full experiment harness.

Quickstart::

    from repro import Scenario, simulate

    result = simulate(Scenario(family="ring", n=100))
    assert result.gathered
    print(result.rounds, "rounds for", result.robots_initial, "robots")

``simulate()`` is the unified facade: every workload — the paper's grid
algorithm and all baselines it is compared against — runs behind it,
selected by string key from the ``STRATEGIES``/``SCHEDULERS`` registries
and returning one uniform ``RunResult`` (see docs/api.md).  The classic
``gather(cells)`` spelling still works and routes through the facade.

See README.md for the architecture overview, DESIGN.md for the paper-to-
module mapping, and EXPERIMENTS.md for measured results.
"""

from repro.constants import (
    GATHER_SQUARE,
    MAX_BUMP_LENGTH,
    RUN_PASSING_DISTANCE,
    RUN_START_INTERVAL,
    VIEWING_RADIUS,
)
from repro.core import AlgorithmConfig, GatherOnGrid, gather
from repro.engine import (
    AsyncEngine,
    ConnectivityViolation,
    RoundEngine,
    RunResult,
    Scenario,
)
from repro.grid import SwarmState, extract_boundaries, is_connected
from repro.api import SCHEDULERS, STRATEGIES, simulate
from repro.swarms import (
    diamond_ring,
    double_donut,
    line,
    plus_shape,
    random_blob,
    random_tree,
    ring,
    solid_rectangle,
    spiral,
    staircase,
)

__version__ = "1.1.0"

__all__ = [
    "simulate",
    "Scenario",
    "RunResult",
    "STRATEGIES",
    "SCHEDULERS",
    "GATHER_SQUARE",
    "MAX_BUMP_LENGTH",
    "RUN_PASSING_DISTANCE",
    "RUN_START_INTERVAL",
    "VIEWING_RADIUS",
    "AlgorithmConfig",
    "GatherOnGrid",
    "gather",
    "AsyncEngine",
    "ConnectivityViolation",
    "RoundEngine",
    "SwarmState",
    "extract_boundaries",
    "is_connected",
    "diamond_ring",
    "double_donut",
    "line",
    "plus_shape",
    "random_blob",
    "random_tree",
    "ring",
    "solid_rectangle",
    "spiral",
    "staircase",
    "__version__",
]
