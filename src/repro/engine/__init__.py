"""Simulation engines: the synchronous round engine, the sequential
ASYNC engine, and the one run loop that drives them.

The round engine (:class:`RoundEngine`) implements the look-compute-move
model of [CP04] as used by the paper: in every round the activated robots
simultaneously take a snapshot, compute, and move; robots ending on the
same cell merge.  Without an activation schedule every robot acts (FSYNC,
the paper's time model); with one (:mod:`repro.engine.ssync_scheduler`)
an adversary picks per-round subsets under a k-fairness bound (SSYNC),
optionally with seeded faults (:mod:`repro.engine.faults`) and stale
views (async-lcm).  The engine is algorithm-agnostic: any controller
implementing :class:`Controller` can be simulated, which is how the core
algorithm and the baselines share infrastructure.

The ASYNC engine models the fair sequential scheduler (one robot at a
time).

Both engines only step rounds.  :func:`run_engine` owns the rest of a
run for them and for the facade's self-clocked programs: the round
budget, the terminal rule (``gathered``, then ``connectivity_lost``,
then ``budget_exhausted`` — :data:`TERMINAL_KINDS`), the one terminal
event, the ``on_round`` hook, and the :class:`RunResult`.
"""

from repro.engine.errors import ConnectivityViolation, SimulationError
from repro.engine.events import Event, EventLog
from repro.engine.faults import FaultInjector
from repro.engine.metrics import MetricsLog, RoundMetrics
from repro.engine.protocols import (
    RunResult,
    Scenario,
    Scheduler,
    SimContext,
    Strategy,
)
from repro.engine.scheduler import Controller, RoundEngine
from repro.engine.async_scheduler import AsyncController, AsyncEngine
from repro.engine.ssync_scheduler import (
    ACTIVATION_POLICIES,
    ActivationSchedule,
    make_policy,
)
from repro.engine.termination import (
    TERMINAL_KINDS,
    default_round_budget,
    is_gathered,
    run_engine,
)

__all__ = [
    "ACTIVATION_POLICIES",
    "ActivationSchedule",
    "FaultInjector",
    "make_policy",
    "ConnectivityViolation",
    "SimulationError",
    "Event",
    "EventLog",
    "MetricsLog",
    "RoundMetrics",
    "RunResult",
    "Scenario",
    "Scheduler",
    "SimContext",
    "Strategy",
    "Controller",
    "RoundEngine",
    "AsyncController",
    "AsyncEngine",
    "TERMINAL_KINDS",
    "default_round_budget",
    "is_gathered",
    "run_engine",
]
