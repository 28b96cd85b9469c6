"""The unified simulation facade: ``simulate()`` over pluggable
strategies and schedulers.

The paper's central claim is comparative — the local-view grid strategy
gathers in O(n) FSYNC rounds where the Euclidean go-to-center baseline
needs Theta(n^2), global vision needs O(diameter), and a fair ASYNC
scheduler admits a simple O(n) strategy.  This module gives every one of
those competitors (plus the chain-shortening lineage baselines) the same
surface:

>>> from repro import Scenario, simulate
>>> result = simulate(Scenario(family="ring", n=100))          # the paper
>>> result = simulate(Scenario(family="circle", n=32),
...                   strategy="euclidean")                    # [DKL+11]
>>> result.gathered, result.rounds, result.events.counts()     # uniform

Strategies and schedulers are string-keyed registries (mirroring
:data:`repro.swarms.generators.FAMILIES`), populated by decorator at
import time:

* :data:`STRATEGIES` — ``grid``, ``tolerant``, ``global``,
  ``euclidean``, ``async_greedy``, ``chain``, ``closed_chain``;
* :data:`SCHEDULERS` — ``fsync`` (the paper's time model), ``async``
  (the fair sequential scheduler), ``ssync`` / ``ssync-faulty``
  (semi-synchronous subset activation under a k-fairness bound,
  optionally with seeded crash-stop, transient sleep and byzantine
  faults — see :mod:`repro.engine.ssync_scheduler`) and ``async-lcm``
  (non-atomic look-compute-move with bounded staleness).  ``fsync``,
  ``ssync``, ``ssync-faulty`` and ``async-lcm`` drive grid-state
  programs through the round engine,
  :class:`repro.engine.scheduler.RoundEngine`, and the self-clocked
  Euclidean and chain baselines through the stepped engine,
  :class:`_SteppedEngine`.  Every engine, the ``async`` scheduler's
  :class:`repro.engine.async_scheduler.AsyncEngine` included, runs in
  the one run loop, :func:`repro.engine.termination.run_engine`.

Adversarial scheduling, for example — any strategy, one keyword:

>>> result = simulate(Scenario(family="ring", n=64), scheduler="ssync",
...                   activation="uniform", activation_p=0.7, seed=1)
>>> result.events.counts()["activation"] == result.rounds
True

Every run returns one :class:`repro.engine.protocols.RunResult`.
``repro.core.algorithm.gather`` stays as the quickstart spelling of
``simulate(cells)`` and returns the same result.

New time models and workloads plug in by registering a class here — see
``docs/api.md`` for the contract and ``docs/schedulers.md`` for the
SSYNC/fault model semantics.
"""

from __future__ import annotations

from typing import (
    Any,
    Callable,
    Dict,
    FrozenSet,
    List,
    Optional,
    Sequence,
    Set,
)

from repro.baselines.async_greedy import AsyncGreedyGatherer
from repro.baselines.chain import ChainShortener, hairpin_chain, zigzag_chain
from repro.baselines.closed_chain import ClosedChainGatherer, rectangle_chain
from repro.baselines.euclidean import (
    EuclideanSwarm,
    GoToCenterGatherer,
    worst_case_circle,
)
from repro.baselines.global_grid import GlobalVisionGatherer
from repro.core.algorithm import GatherOnGrid
from repro.core.config import AlgorithmConfig
from repro.core.tolerant import TolerantGatherOnGrid
from repro.engine.async_scheduler import AsyncEngine
from repro.engine.events import EventLog
from repro.engine.faults import FaultInjector
from repro.engine.metrics import MetricsLog, RoundMetrics
from repro.engine.protocols import (
    AsyncProgram,
    FsyncProgram,
    RunResult,
    Scenario,
    Scheduler,
    SimContext,
    StateView,
    SteppedProgram,
    Strategy,
)
from repro.engine.scheduler import RoundEngine
from repro.engine.ssync_scheduler import ActivationSchedule, make_policy
from repro.engine.termination import run_engine
from repro.grid.occupancy import SwarmState
from repro.swarms.generators import family
from repro.trace.recorder import TraceRecorder

# ----------------------------------------------------------------------
# Registries
# ----------------------------------------------------------------------
STRATEGIES: Dict[str, Strategy] = {}
SCHEDULERS: Dict[str, Scheduler] = {}


def register_strategy(cls: type) -> type:
    """Class decorator: instantiate and register a strategy by its key."""
    inst = cls()
    if inst.key in STRATEGIES:
        raise ValueError(f"duplicate strategy key {inst.key!r}")
    STRATEGIES[inst.key] = inst
    return cls


def register_scheduler(cls: type) -> type:
    """Class decorator: instantiate and register a scheduler by its key."""
    inst = cls()
    if inst.key in SCHEDULERS:
        raise ValueError(f"duplicate scheduler key {inst.key!r}")
    SCHEDULERS[inst.key] = inst
    return cls


# ----------------------------------------------------------------------
# Scenario resolution helpers
# ----------------------------------------------------------------------
def _as_scenario(scenario: Any) -> Scenario:
    if isinstance(scenario, Scenario):
        return scenario
    if isinstance(scenario, str):
        raise TypeError(
            "string scenarios are ambiguous; pass "
            "Scenario(family=..., n=...) or an explicit sequence"
        )
    return Scenario(payload=list(scenario))


def _grid_cells(scenario: Scenario, ctx: SimContext) -> List[Any]:
    if scenario.payload is not None:
        return list(scenario.payload)
    seed = scenario.seed if scenario.seed is not None else ctx.seed
    return family(scenario.family, scenario.n, seed=seed)


def _span(points: Sequence[Any]) -> float:
    """Chebyshev diameter of a point/cell set (the bounding-box span —
    identical to ``SwarmState.diameter_chebyshev`` on grid cells)."""
    if not points:
        raise ValueError("cannot simulate an empty scenario")
    xs = [p[0] for p in points]
    ys = [p[1] for p in points]
    return max(max(xs) - min(xs), max(ys) - min(ys))


# ----------------------------------------------------------------------
# Schedulers
# ----------------------------------------------------------------------
class _SteppedEngine:
    """A self-clocked program (the Euclidean and chain baselines) as an
    engine of :func:`run_engine`: FSYNC without a schedule, SSYNC /
    async-lcm at Δ = 0 with one.

    Without a schedule every robot acts: a round builds no roster and
    no hints, emits no ``activation`` events and counts no
    activations.  With one, each round selects the active subset of the
    program's roster of stable robot tokens."""

    #: Self-clocked programs check no connectivity.
    connectivity_lost = False

    def __init__(
        self,
        program: SteppedProgram,
        schedule: Optional[ActivationSchedule] = None,
    ) -> None:
        self.program = program
        self.schedule = schedule
        self.metrics = MetricsLog()
        self.events = EventLog()
        self.round_index = 0
        self.activations = 0
        self.terminal_round: Optional[int] = None
        # Adversarial-policy hints: stepped programs have no run manager,
        # so the progress carriers are whoever moved last round (roster
        # order matches view() order for every stepped program).
        self._moved: FrozenSet[Any] = frozenset()
        if schedule is not None:
            schedule.events = self.events
            self._roster = program.roster()
            self._view = program.view()

    @property
    def state(self) -> Any:
        # Under a schedule, step() has already built this round's view.
        if self.schedule is not None:
            return self._view
        return self.program.view()

    def gathered(self) -> bool:
        return self.program.done()

    def default_budget(self) -> int:
        return self.program.default_budget()

    def step(self) -> None:
        r = self.round_index
        program = self.program
        schedule = self.schedule
        if schedule is None:
            program.step(r, None, self.metrics, self.events)
        else:
            roster = self._roster
            active = schedule.select(r, roster, hints=self._moved)
            self.activations += len(active)
            program.step(r, active, self.metrics, self.events)
            before = dict(zip(roster, self._view.cells))
            self._roster = roster = program.roster()
            self._view = program.view()
            self._moved = frozenset(
                t
                for t, c in zip(roster, self._view.cells)
                if before.get(t) != c
            )
            schedule.commit(active, survivors=roster)
        self.round_index = r + 1

    def result_fields(self) -> Dict[str, Any]:
        fields = self.program.result_fields()
        return {
            "robots_initial": self.program.robots_initial,
            "robots_final": fields.pop("robots_final"),
            "final_state": fields.pop("final_state"),
            "activations": (
                self.activations if self.schedule is not None else None
            ),
            "extras": fields,
        }


#: Seed salts keeping the activation-policy RNG, the fault RNG and the
#: async-lcm staleness draws independent streams of one user-facing
#: ``simulate(seed=...)``.
_POLICY_SEED_SALT = 0x55AC
_FAULT_SEED_SALT = 0xFA17
_STALENESS_SEED_SALT = 0x5A1E


def _drive_rounds(
    program: Any,
    ctx: SimContext,
    schedule: Optional[ActivationSchedule] = None,
    staleness: int = 0,
) -> RunResult:
    """Run a grid-state program on the round engine
    (:class:`RoundEngine`): FSYNC without a schedule, SSYNC / async-lcm
    with one."""
    seed = ctx.seed if ctx.seed is not None else 0
    engine = RoundEngine(
        program.state,
        program.controller,
        schedule,
        staleness=staleness,
        seed=seed ^ _STALENESS_SEED_SALT,
        check_connectivity=program.check_connectivity,
    )
    result = run_engine(
        engine, max_rounds=ctx.max_rounds, on_round=ctx.on_round
    )
    extras_fn = getattr(program, "extras_fn", None)
    if extras_fn is not None:
        result.extras = dict(extras_fn())
    return result


@register_scheduler
class FsyncScheduler:
    """The paper's fully synchronous look-compute-move rounds.

    Drives either an engine-backed :class:`FsyncProgram` (grid
    controllers via :class:`repro.engine.scheduler.RoundEngine` without
    a schedule) or a :class:`SteppedProgram` (the Euclidean and chain
    baselines over non-grid state) via :class:`_SteppedEngine` without
    a schedule.
    """

    key = "fsync"
    description = "fully synchronous rounds (the paper's time model)"
    option_names: tuple = ()

    def drive(self, program: Any, ctx: SimContext) -> RunResult:
        if isinstance(program, FsyncProgram):
            return _drive_rounds(program, ctx)
        return run_engine(
            _SteppedEngine(program),
            max_rounds=ctx.max_rounds,
            on_round=ctx.on_round,
        )


@register_scheduler
class AsyncScheduler:
    """The fair sequential scheduler (one robot at a time, a round ends
    when every robot was activated) via
    :class:`repro.engine.async_scheduler.AsyncEngine`."""

    key = "async"
    description = "fair sequential scheduler (one robot active at a time)"
    option_names: tuple = ()

    def drive(self, program: AsyncProgram, ctx: SimContext) -> RunResult:
        seed = ctx.seed if ctx.seed is not None else program.seed
        engine = AsyncEngine(
            program.state,
            program.controller,
            seed=seed,
            check_connectivity=program.check_connectivity,
        )
        return run_engine(
            engine, max_rounds=ctx.max_rounds, on_round=ctx.on_round
        )


class _SsyncSchedulerBase:
    """Semi-synchronous subset activation under a k-fairness bound.

    Options (``simulate(..., scheduler="ssync", <option>=...)``):

    ``activation``
        Policy key: ``"uniform"`` (default), ``"round_robin"``,
        ``"adversarial"``, or ``"scripted"`` — see
        :data:`repro.engine.ssync_scheduler.ACTIVATION_POLICIES`.
    ``activation_p``
        Per-robot activation probability for ``uniform`` (default 0.5;
        1.0 reproduces FSYNC trajectories exactly when faults are off).
    ``rr_k``
        Class count for ``round_robin`` (default 3).
    ``schedule``
        Per-round token lists for ``scripted`` (required by, and only
        valid with, that policy) — the nondeterminism explorer's
        witness-replay surface (:mod:`repro.explore`).
    ``k_fairness``
        Fairness bound: every (fault-free) robot is activated at least
        once in any ``k`` consecutive rounds (default 8).
    ``sleep_rate`` / ``crash_rate``
        Per-robot, per-round transient-sleep and crash-stop fault
        probabilities (defaults differ between ``ssync`` and
        ``ssync-faulty``).
    ``byzantine_rate``
        Probability that a robot is byzantine for the whole run —
        each round it reports a stale position, hops off-plan, or
        plays dead (``docs/schedulers.md``).  Grid-state programs
        only; draws are churn-invariant and independent of the
        crash/sleep and activation streams.

    One ``simulate(seed=...)`` seeds policy and fault draws on
    independent RNG streams; ``seed=None`` means seed 0 — adversarial
    runs are always deterministic.
    """

    option_names = (
        "activation",
        "activation_p",
        "rr_k",
        "schedule",
        "k_fairness",
        "sleep_rate",
        "crash_rate",
        "byzantine_rate",
    )
    default_sleep_rate = 0.0
    default_crash_rate = 0.0
    default_byzantine_rate = 0.0
    key = "ssync"  # overridden by the registered subclasses

    def _build_schedule(self, ctx: SimContext) -> ActivationSchedule:
        opts = ctx.options
        name = opts.pop("activation", "uniform")
        p = opts.pop("activation_p", None)
        rr_k = opts.pop("rr_k", None)
        schedule = opts.pop("schedule", None)
        k_fairness = opts.pop("k_fairness", 8)
        sleep_rate = opts.pop("sleep_rate", self.default_sleep_rate)
        crash_rate = opts.pop("crash_rate", self.default_crash_rate)
        byzantine_rate = opts.pop(
            "byzantine_rate", self.default_byzantine_rate
        )
        # A parameter for a policy that is not in effect would be
        # silently ignored — reject it instead, keeping calls honest.
        if p is not None and name != "uniform":
            raise ValueError(
                f"activation_p applies only to the 'uniform' policy, "
                f"not {name!r}"
            )
        if rr_k is not None and name != "round_robin":
            raise ValueError(
                f"rr_k applies only to the 'round_robin' policy, "
                f"not {name!r}"
            )
        if schedule is not None and name != "scripted":
            raise ValueError(
                f"schedule applies only to the 'scripted' policy, "
                f"not {name!r}"
            )
        seed = ctx.seed if ctx.seed is not None else 0
        policy = make_policy(
            name,
            p=0.5 if p is None else p,
            k=3 if rr_k is None else rr_k,
            seed=seed ^ _POLICY_SEED_SALT,
            schedule=schedule,
        )
        injector = FaultInjector(
            sleep_rate,
            crash_rate,
            seed=seed ^ _FAULT_SEED_SALT,
            byzantine_rate=byzantine_rate,
        )
        return ActivationSchedule(
            policy, k_fairness, injector if injector.enabled else None
        )

    def drive(
        self, program: Any, ctx: SimContext, staleness: int = 0
    ) -> RunResult:
        schedule = self._build_schedule(ctx)
        if isinstance(program, (FsyncProgram, AsyncProgram)):
            return _drive_rounds(program, ctx, schedule, staleness)
        if isinstance(program, SteppedProgram):
            faults = schedule.faults
            if faults is not None and faults.byzantine_rate > 0.0:
                raise ValueError(
                    "byzantine_rate supports grid-state programs only "
                    "(stale-position perception needs the shared grid "
                    "snapshot); self-clocked programs accept "
                    "sleep_rate/crash_rate"
                )
            if staleness > 0:
                raise ValueError(
                    "async-lcm over self-clocked programs supports "
                    "staleness=0 only (their step surface has no "
                    "snapshot archive); grid-state strategies support "
                    "any staleness bound"
                )
            return run_engine(
                _SteppedEngine(program, schedule),
                max_rounds=ctx.max_rounds,
                on_round=ctx.on_round,
            )
        raise TypeError(
            f"program {type(program).__name__} does not support the "
            f"{self.key} scheduler (needs FsyncProgram, AsyncProgram or "
            f"SteppedProgram)"
        )


@register_scheduler
class SsyncScheduler(_SsyncSchedulerBase):
    """SSYNC: per-round activation subsets under a k-fairness bound,
    fault-free by default (fault rates can still be passed explicitly)."""

    key = "ssync"
    description = (
        "semi-synchronous subset activation under a k-fairness bound"
    )


@register_scheduler
class SsyncFaultyScheduler(_SsyncSchedulerBase):
    """SSYNC with fault injection on by default: transient sleep faults
    at rate 0.05 (override with ``sleep_rate``/``crash_rate``)."""

    key = "ssync-faulty"
    description = (
        "SSYNC with seeded crash-stop / transient-sleep fault injection"
    )
    default_sleep_rate = 0.05


@register_scheduler
class AsyncLcmScheduler(_SsyncSchedulerBase):
    """Non-atomic ASYNC: look, compute, and move decouple with bounded
    staleness (the view-age layer of
    :class:`repro.engine.scheduler.RoundEngine`).

    Accepts every SSYNC option except ``byzantine_rate`` (stale
    perception is this model's native adversary) plus:

    ``staleness``
        The staleness bound Δ (default 0): an activated robot computes
        on a snapshot up to Δ rounds old and its move lands up to Δ
        rounds later.  Δ = 0 is the plain ``ssync`` round — with full
        activation, bit-identical to ``fsync`` (golden-pinned).
    """

    key = "async-lcm"
    description = (
        "non-atomic ASYNC: stale-snapshot compute and delayed moves "
        "under bounded staleness"
    )
    option_names = tuple(
        name
        for name in _SsyncSchedulerBase.option_names
        if name != "byzantine_rate"
    ) + ("staleness",)

    def drive(self, program: Any, ctx: SimContext) -> RunResult:
        staleness = ctx.options.pop("staleness", 0)
        if (
            not isinstance(staleness, int)
            or isinstance(staleness, bool)
            or staleness < 0
        ):
            raise ValueError(
                f"staleness must be a non-negative integer round "
                f"count, got {staleness!r}"
            )
        return super().drive(program, ctx, staleness)


# ----------------------------------------------------------------------
# Grid-state strategies (round engine / ASYNC engine)
# ----------------------------------------------------------------------
@register_strategy
class GridStrategy:
    """The paper's O(n) local-view gathering (``GatherOnGrid``).

    Options: ``controller`` — a pre-built :class:`GatherOnGrid` to plug
    in (the CLI ``watch`` command uses it to read runner marks)."""

    key = "grid"
    description = "paper's local-view O(n) grid gathering (FSYNC)"
    schedulers = ("fsync", "ssync", "ssync-faulty", "async-lcm")
    default_scheduler = "fsync"
    compare_label = "grid"

    def resolve(self, scenario: Scenario, ctx: SimContext) -> List[Any]:
        return _grid_cells(scenario, ctx)

    def build(self, resolved: Any, ctx: SimContext) -> FsyncProgram:
        controller = ctx.options.pop("controller", None)
        if controller is None:
            controller = GatherOnGrid(ctx.config or AlgorithmConfig())
        return FsyncProgram(
            state=SwarmState(resolved),
            controller=controller,
            check_connectivity=ctx.check_connectivity,
        )

    def compare_scenario(self, n: int) -> Scenario:
        # the line realizes the paper's Omega(n) diameter lower bound
        return Scenario(family="line", n=n)


@register_strategy
class TolerantStrategy:
    """The connectivity-tolerant variant of the paper's algorithm
    (:class:`~repro.core.tolerant.TolerantGatherOnGrid`): the stock
    plan filtered through the stationary-core subset-safety certificate,
    so *any* activation subset preserves connectivity — the SSYNC breaks
    the explorer certifies against the stock algorithm vanish by
    construction (``repro certify --strategy tolerant``).

    Options: ``controller`` — a pre-built controller to plug in, like
    the grid strategy."""

    key = "tolerant"
    description = (
        "connectivity-tolerant grid gathering (subset-safe move filter)"
    )
    schedulers = ("fsync", "ssync", "ssync-faulty", "async-lcm")
    default_scheduler = "fsync"
    compare_label = "tolerant"

    def resolve(self, scenario: Scenario, ctx: SimContext) -> List[Any]:
        return _grid_cells(scenario, ctx)

    def build(self, resolved: Any, ctx: SimContext) -> FsyncProgram:
        controller = ctx.options.pop("controller", None)
        if controller is None:
            controller = TolerantGatherOnGrid(
                ctx.config or AlgorithmConfig()
            )
        return FsyncProgram(
            state=SwarmState(resolved),
            controller=controller,
            check_connectivity=ctx.check_connectivity,
        )

    def compare_scenario(self, n: int) -> Scenario:
        return Scenario(family="line", n=n)


@register_strategy
class GlobalVisionStrategy:
    """Global-vision grid gathering ([SN14] flavour): everyone steps
    toward the enclosing-rectangle center.  Connectivity is not part of
    this model, so the check is always off."""

    key = "global"
    description = "global-vision gathering toward the bounding-box center"
    schedulers = ("fsync", "ssync", "ssync-faulty", "async-lcm")
    default_scheduler = "fsync"
    compare_label = "global"

    def resolve(self, scenario: Scenario, ctx: SimContext) -> List[Any]:
        return _grid_cells(scenario, ctx)

    def build(self, resolved: Any, ctx: SimContext) -> FsyncProgram:
        controller = GlobalVisionGatherer()
        return FsyncProgram(
            state=SwarmState(resolved),
            controller=controller,
            check_connectivity=False,
            extras_fn=lambda: {"total_moves": controller.total_moves},
        )

    def compare_scenario(self, n: int) -> Scenario:
        return Scenario(family="line", n=n)


@register_strategy
class AsyncGreedyStrategy:
    """The Section 1 remark: a simple greedy achieves O(n) rounds under
    a fair ASYNC scheduler.  ``simulate(seed=...)`` seeds the scheduler's
    activation order."""

    key = "async_greedy"
    description = "greedy gathering under the fair ASYNC scheduler"
    schedulers = ("async", "ssync", "ssync-faulty", "async-lcm")
    default_scheduler = "async"
    compare_label = "async"

    def resolve(self, scenario: Scenario, ctx: SimContext) -> List[Any]:
        return _grid_cells(scenario, ctx)

    def build(self, resolved: Any, ctx: SimContext) -> AsyncProgram:
        return AsyncProgram(
            state=SwarmState(resolved),
            controller=AsyncGreedyGatherer(),
            check_connectivity=ctx.check_connectivity,
        )

    def compare_scenario(self, n: int) -> Scenario:
        return Scenario(family="blob", n=n, seed=n)


# ----------------------------------------------------------------------
# Self-clocked baselines (Euclidean, chains)
# ----------------------------------------------------------------------
class _EuclideanProgram:
    """Drives [DKL+11] go-to-center rounds over a continuous swarm."""

    def __init__(
        self,
        swarm: EuclideanSwarm,
        gather_diameter: float,
        record_diameter: bool,
    ) -> None:
        self.swarm = swarm
        self.gatherer = GoToCenterGatherer()
        self.gather_diameter = gather_diameter
        self.record_diameter = record_diameter
        self.diameters: List[float] = []
        self.robots_initial = len(swarm)

    def done(self) -> bool:
        return self.swarm.diameter() <= self.gather_diameter

    def default_budget(self) -> int:
        # generous Theta(n^2)
        n = self.robots_initial
        return 300 * n * n + 1000

    def roster(self) -> List[int]:
        # Continuous robots never merge, so array indices are stable ids.
        return list(range(len(self.swarm)))

    def step(
        self,
        round_index: int,
        active: Optional[Set[int]],
        metrics: MetricsLog,
        events: EventLog,
    ) -> None:
        self.gatherer.step(self.swarm, active=active)
        diameter = self.swarm.diameter()
        if self.record_diameter:
            self.diameters.append(diameter)
        metrics.record(
            RoundMetrics(
                round_index=round_index,
                robots=len(self.swarm),
                merged=0,
                diameter=diameter,
            )
        )

    def view(self) -> StateView:
        return StateView(
            cells=tuple(tuple(p) for p in self.swarm.pos.tolist())
        )

    def result_fields(self) -> Dict[str, Any]:
        return {
            "robots_final": len(self.swarm),
            "final_state": self.swarm,
            "diameters": list(self.diameters),
            "gather_diameter": self.gather_diameter,
        }


@register_strategy
class EuclideanStrategy:
    """[DKL+11] go-to-center in the Euclidean plane (Theta(n^2) FSYNC).

    Scenario families: ``"circle"`` (the tight instance) or any grid
    family (cells become unit-spaced points, so 4-connected swarms stay
    unit-disk connected).  Options: ``view_range`` (default 1.0),
    ``gather_diameter`` (default 1.0), ``record_diameter`` (collect the
    per-round diameter series into ``extras["diameters"]``)."""

    key = "euclidean"
    description = "[DKL+11] Euclidean go-to-center (Theta(n^2) FSYNC)"
    schedulers = ("fsync", "ssync", "ssync-faulty", "async-lcm")
    default_scheduler = "fsync"
    compare_label = "euclid"

    def resolve(self, scenario: Scenario, ctx: SimContext) -> List[Any]:
        if scenario.payload is not None:
            return [tuple(p) for p in scenario.payload]
        if scenario.family == "circle":
            return worst_case_circle(scenario.n)
        cells = _grid_cells(scenario, ctx)
        return [(float(x), float(y)) for (x, y) in cells]

    def build(self, resolved: Any, ctx: SimContext) -> _EuclideanProgram:
        swarm = EuclideanSwarm(
            resolved, ctx.options.pop("view_range", 1.0)
        )
        if not swarm.is_connected():
            raise ValueError("initial Euclidean swarm must be connected")
        return _EuclideanProgram(
            swarm,
            ctx.options.pop("gather_diameter", 1.0),
            ctx.options.pop("record_diameter", False),
        )

    def compare_scenario(self, n: int) -> Scenario:
        return Scenario(family="circle", n=n)


class _ChainProgramBase:
    """Shared stepping for the chain gatherers: both wrap a stepper
    exposing ``.chain`` (the current cell list), and each subclass's
    ``_advance(active)`` runs one round of it; a shrinking chain is the
    merge analog, recorded as ``merge`` events and per-round metrics."""

    def __init__(self, stepper: Any) -> None:
        self.stepper = stepper
        self.robots_initial = len(stepper.chain)

    def step(
        self,
        round_index: int,
        active: Optional[Set[int]],
        metrics: MetricsLog,
        events: EventLog,
    ) -> None:
        before = len(self.stepper.chain)
        self._advance(active)
        chain = self.stepper.chain
        removed = before - len(chain)
        if removed:
            events.emit(round_index, "merge", removed=removed)
        metrics.record(
            RoundMetrics(
                round_index=round_index,
                robots=len(chain),
                merged=removed,
                diameter=_span(chain),
            )
        )

    def view(self) -> StateView:
        return StateView(cells=tuple(self.stepper.chain))

    def result_fields(self) -> Dict[str, Any]:
        chain = self.stepper.chain
        return {
            "robots_final": len(chain),
            "final_state": list(chain),
        }


class _ChainProgram(_ChainProgramBase):
    """Drives [KM09]-flavoured chain shortening rounds."""

    stepper: ChainShortener

    def __init__(self, stepper: ChainShortener) -> None:
        super().__init__(stepper)
        # Stable relay ids for the roster, migrated through the keep
        # mask each round (removed relays drop out).
        self._ids = list(range(len(stepper.chain)))

    def done(self) -> bool:
        return self.stepper.is_minimal()

    def default_budget(self) -> int:
        return 50 * self.robots_initial + 100

    def roster(self) -> List[int]:
        return list(self._ids)

    def _advance(self, active: Optional[Set[int]]) -> None:
        mask = (
            None if active is None
            else [relay_id in active for relay_id in self._ids]
        )
        keep = self.stepper.step_active(mask)
        self._ids = [i for i, k in zip(self._ids, keep) if k]

    def result_fields(self) -> Dict[str, Any]:
        fields = super().result_fields()
        fields.update(
            initial_length=self.robots_initial,
            final_length=fields["robots_final"],
            optimal_length=self.stepper.optimal_length,
        )
        return fields


@register_strategy
class ChainStrategy:
    """Open communication-chain shortening between fixed endpoints
    ([KM09] Hopper flavour).  ``gathered`` means "reached the minimal
    chain".  Scenario families: ``"hairpin"`` (the linear-round
    workload) and ``"zigzag"``; a payload is the chain itself."""

    key = "chain"
    description = "[KM09]-flavoured open-chain shortening (FSYNC)"
    schedulers = ("fsync", "ssync", "ssync-faulty", "async-lcm")
    default_scheduler = "fsync"
    compare_label = "chain"

    def resolve(self, scenario: Scenario, ctx: SimContext) -> List[Any]:
        if scenario.payload is not None:
            return list(scenario.payload)
        if scenario.family == "hairpin":
            # hairpin_chain(depth) has 2*depth + 3 links
            return hairpin_chain(max(1, (scenario.n - 3) // 2))
        if scenario.family == "zigzag":
            # zigzag_chain(steps) has ~7 links per step
            return zigzag_chain(max(1, scenario.n // 7))
        raise ValueError(
            f"chain strategy knows families 'hairpin'/'zigzag', "
            f"not {scenario.family!r}; pass the chain as payload instead"
        )

    def build(self, resolved: Any, ctx: SimContext) -> _ChainProgram:
        return _ChainProgram(ChainShortener(resolved))

    def compare_scenario(self, n: int) -> Scenario:
        return Scenario(family="hairpin", n=n)


class _ClosedChainProgram(_ChainProgramBase):
    """Drives the randomized closed-chain gatherer ([ACLF+16])."""

    stepper: ClosedChainGatherer

    def done(self) -> bool:
        return self.stepper.is_gathered()

    def default_budget(self) -> int:
        return 400 * self.robots_initial + 400

    def roster(self) -> List[int]:
        # The gatherer's linked-ring nodes already carry stable ids.
        return self.stepper.node_ids

    def _advance(self, active: Optional[Set[int]]) -> None:
        self.stepper.step(active_ids=active)


@register_strategy
class ClosedChainStrategy:
    """The paper's predecessor: randomized closed-chain gathering
    ([ACLF+16], simplified).  ``simulate(seed=...)`` seeds the per-round
    coins.  Scenario family: ``"rectangle"`` (a rectangle-boundary
    chain); a payload is the cyclic chain itself."""

    key = "closed_chain"
    description = "[ACLF+16] randomized closed-chain gathering (FSYNC)"
    schedulers = ("fsync", "ssync", "ssync-faulty", "async-lcm")
    default_scheduler = "fsync"
    compare_label = "closed"

    def resolve(self, scenario: Scenario, ctx: SimContext) -> List[Any]:
        if scenario.payload is not None:
            return list(scenario.payload)
        if scenario.family == "rectangle":
            # rectangle_chain(s, s) has 4*s - 4 links
            side = max(2, scenario.n // 4 + 1)
            return rectangle_chain(side, side)
        raise ValueError(
            f"closed_chain strategy knows family 'rectangle', not "
            f"{scenario.family!r}; pass the cyclic chain as payload instead"
        )

    def build(self, resolved: Any, ctx: SimContext) -> _ClosedChainProgram:
        seed = ctx.seed if ctx.seed is not None else 0
        return _ClosedChainProgram(
            ClosedChainGatherer(resolved, seed=seed)
        )

    def compare_scenario(self, n: int) -> Scenario:
        return Scenario(family="rectangle", n=n)


# ----------------------------------------------------------------------
# The facade
# ----------------------------------------------------------------------
def _chain_hooks(
    hooks: List[Callable[[int, Any], None]],
) -> Callable[[int, Any], None]:
    if len(hooks) == 1:
        return hooks[0]

    def call_all(round_index: int, state: Any) -> None:
        for hook in hooks:
            hook(round_index, state)

    return call_all


def simulate(
    scenario: Any,
    *,
    strategy: str = "grid",
    scheduler: Optional[str] = None,
    config: Optional[AlgorithmConfig] = None,
    max_rounds: Optional[int] = None,
    seed: Optional[int] = None,
    check_connectivity: bool = True,
    on_round: Optional[Callable[[int, Any], None]] = None,
    trace: Optional[Any] = None,
    trace_meta: Optional[Dict[str, Any]] = None,
    **options: Any,
) -> RunResult:
    """Run any registered workload under any compatible scheduler.

    This is the repo's one simulation entry point: pick a workload from
    :data:`STRATEGIES`, a time model from :data:`SCHEDULERS`, and read
    everything off the returned
    :class:`~repro.engine.protocols.RunResult`.

    Parameters
    ----------
    scenario:
        A :class:`Scenario` (family + size, or explicit payload) or a
        raw sequence of cells/points/chain links.
    strategy, scheduler:
        Registry keys (see :data:`STRATEGIES` / :data:`SCHEDULERS`);
        ``scheduler`` defaults to the strategy's canonical time model.
        Every strategy also runs under ``"ssync"`` / ``"ssync-faulty"``
        (adversarial subset activation, optional fault injection — the
        scheduler options below).
    config:
        :class:`AlgorithmConfig` for the grid strategy (others ignore).
    max_rounds:
        Round budget; ``None`` uses the strategy's generous default.
    seed:
        One seed for everything stochastic: scenario generation (unless
        the Scenario pins its own), the ASYNC activation order, the
        closed chain's coins, the SSYNC activation policy and fault
        draws.  ``None`` keeps each component's default seed (the
        SSYNC schedulers read ``None`` as seed 0 — always
        deterministic).
    check_connectivity:
        Verify the paper's connectivity invariant each round and raise
        :class:`~repro.engine.errors.ConnectivityViolation` on breakage
        (grid-state strategies only).
    on_round / trace:
        Per-round hooks: a callback ``(round_index, state)``; write a
        JSONL trace to the given file handle (with
        strategy/scheduler/family metadata).
    options:
        Strategy-specific keywords (``view_range``, ``controller``, ...)
        and scheduler-specific keywords (for ``ssync``/``ssync-faulty``:
        ``activation``, ``activation_p``, ``rr_k``, ``k_fairness``,
        ``sleep_rate``, ``crash_rate`` — semantics in
        ``docs/schedulers.md``) — unknown ones raise, keeping call
        sites honest.

    Returns
    -------
    RunResult
        Uniform outcome: ``gathered``/``rounds``/population counts,
        per-round ``metrics``, a round-ordered ``events`` log (with
        ``activation``/``fault`` events under the SSYNC schedulers and
        a terminal ``gathered``/``budget_exhausted`` event always), the
        strategy's native ``final_state``, and strategy-specific
        ``extras``.
    """
    try:
        strat = STRATEGIES[strategy]
    except KeyError:
        raise KeyError(
            f"unknown strategy {strategy!r}; available: {sorted(STRATEGIES)}"
        ) from None
    scheduler_key = (
        scheduler if scheduler is not None else strat.default_scheduler
    )
    try:
        sched = SCHEDULERS[scheduler_key]
    except KeyError:
        raise KeyError(
            f"unknown scheduler {scheduler_key!r}; "
            f"available: {sorted(SCHEDULERS)}"
        ) from None
    if scheduler_key not in strat.schedulers:
        raise ValueError(
            f"strategy {strategy!r} supports schedulers "
            f"{strat.schedulers}, not {scheduler_key!r}"
        )

    sc = _as_scenario(scenario)
    ctx = SimContext(
        config=config,
        max_rounds=max_rounds,
        seed=seed,
        check_connectivity=check_connectivity,
        options=dict(options),
    )
    resolved = strat.resolve(sc, ctx)
    initial_diameter = _span(resolved)

    hooks: List[Callable[[int, Any], None]] = []
    if trace is not None:
        meta: Dict[str, Any] = {
            "strategy": strategy,
            "scheduler": scheduler_key,
        }
        if sc.family is not None:
            meta["family"] = sc.family
        if sc.n is not None:
            meta["n"] = sc.n
        meta.update(trace_meta or {})
        hooks.append(TraceRecorder(trace, meta=meta))
    if on_round is not None:
        hooks.append(on_round)
    ctx.on_round = _chain_hooks(hooks) if hooks else None

    program = strat.build(resolved, ctx)
    # Options the strategy's build() did not consume may still belong to
    # the scheduler (popped inside drive()); anything else is a typo and
    # must fail loudly before the run starts.
    scheduler_options = set(getattr(sched, "option_names", ()))
    unknown = set(ctx.options) - scheduler_options
    if unknown:
        accepts = (
            f"scheduler {scheduler_key!r} accepts "
            f"{sorted(scheduler_options)}"
            if scheduler_options
            else f"scheduler {scheduler_key!r} accepts no options"
        )
        raise TypeError(
            f"strategy {strategy!r} / scheduler {scheduler_key!r} got "
            f"unknown options {sorted(unknown)}; {accepts}; registered "
            f"schedulers: {sorted(SCHEDULERS)}"
        )
    result = sched.drive(program, ctx)
    result.strategy = strategy
    result.scheduler = scheduler_key
    result.extras.setdefault("initial_diameter", initial_diameter)
    return result
