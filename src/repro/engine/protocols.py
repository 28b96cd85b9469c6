"""Protocols and shared types of the unified simulation facade.

Every workload in the repo — the paper's grid algorithm and each of the
baselines it is compared against — runs behind one entry point,
:func:`repro.api.simulate`.  This module holds the pieces that entry
point is built from, kept separate from :mod:`repro.api` so engines and
strategies can depend on the *types* without importing the registry:

* :class:`Scenario` — declarative workload description (a generator
  family + size, or an explicit cell/point/chain payload);
* :class:`SimContext` — the per-call knobs a strategy/scheduler receives
  (config, budget, seed, hooks);
* :class:`RunResult` — the one result type every simulation returns;
* :class:`Strategy` / :class:`Scheduler` — the two registry protocols;
* the *program* types schedulers drive: :class:`FsyncProgram` and
  :class:`AsyncProgram` (engine-backed) and :class:`SteppedProgram`
  (self-clocked programs over non-grid state: Euclidean go-to-center
  and the two chain gatherers, stepped by the facade's stepped engine
  under FSYNC, SSYNC and async-lcm at Δ = 0).

See ``docs/api.md`` for the full facade contract and the migration
table from the removed per-workload entry points.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Dict,
    List,
    Optional,
    Protocol,
    Sequence,
    Set,
    Tuple,
    runtime_checkable,
)

from repro.engine.events import EventLog
from repro.engine.metrics import MetricsLog


# ----------------------------------------------------------------------
# Scenario and per-call context
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Scenario:
    """Declarative workload description for :func:`repro.api.simulate`.

    Either an explicit ``payload`` (a sequence of grid cells, Euclidean
    points, or chain links — whatever the strategy consumes) or a
    ``family`` name plus target size ``n``.  Family names are
    interpreted by the strategy: the grid strategies use
    :data:`repro.swarms.generators.FAMILIES`, the Euclidean strategy
    adds ``"circle"`` (the [DKL+11] worst case; grid families are also
    accepted as unit-spaced points), and the chain strategies use
    ``"hairpin"`` / ``"zigzag"`` (open chains) and ``"rectangle"``
    (closed chains).  ``seed`` pins stochastic generators and falls back
    to ``simulate(seed=...)`` when unset.
    """

    family: Optional[str] = None
    n: Optional[int] = None
    seed: Optional[int] = None
    payload: Optional[Sequence[Any]] = None

    def __post_init__(self) -> None:
        if self.payload is None:
            if self.family is None:
                raise ValueError("Scenario needs a family or a payload")
            if self.n is None:
                raise ValueError(
                    f"Scenario(family={self.family!r}) needs a size n"
                )


@dataclass
class SimContext:
    """Per-``simulate()`` knobs handed to strategies and schedulers.

    ``config`` is the grid :class:`repro.core.config.AlgorithmConfig`
    (baseline strategies ignore it); ``seed`` drives both stochastic
    scenario generation (when the :class:`Scenario` carries no seed of
    its own) and stochastic execution (the ASYNC activation order, the
    closed chain's coins); ``options`` carries strategy-specific keyword
    arguments (e.g. ``view_range`` for the Euclidean strategy).
    """

    config: Any = None
    max_rounds: Optional[int] = None
    seed: Optional[int] = None
    check_connectivity: bool = True
    on_round: Optional[Callable[[int, Any], None]] = None
    options: Dict[str, Any] = field(default_factory=dict)


# ----------------------------------------------------------------------
# The unified result
# ----------------------------------------------------------------------
def _jsonable(value: Any) -> bool:
    if isinstance(value, (bool, int, float, str)) or value is None:
        return True
    if isinstance(value, (list, tuple)):
        return all(_jsonable(v) for v in value)
    if isinstance(value, dict):
        return all(
            isinstance(k, str) and _jsonable(v) for k, v in value.items()
        )
    return False


@dataclass
class RunResult:
    """Outcome of one run — any strategy, any scheduler: what
    :func:`repro.api.simulate` returns, built by the one run loop
    (:func:`repro.engine.termination.run_engine`).

    ``gathered`` means "reached the workload's goal" (a 2x2 square for
    grid gathering, diameter below threshold for the Euclidean model, a
    minimal chain for chain shortening).  ``metrics`` and ``events`` are
    populated for *every* strategy; ``events`` always ends with one
    terminal event of
    :data:`~repro.engine.termination.TERMINAL_KINDS` — ``gathered``,
    else ``connectivity_lost`` when an SSYNC run broke the algorithm's
    connectivity invariant, else ``budget_exhausted`` — and the SSYNC
    schedulers add per-round ``activation`` and ``fault`` events
    (schema in ``docs/schedulers.md``).  ``final_state`` is the
    strategy's native state object
    (:class:`~repro.grid.occupancy.SwarmState` for grid workloads, an
    ``EuclideanSwarm`` for the continuous baseline, a cell list for
    chains).  ``activations`` counts total robot-activations under
    every scheduler but ``fsync`` (``None`` there).  ``extras`` carries
    strategy-specific scalars/series (e.g. ``total_moves``,
    ``optimal_length``, ``diameters``); ``simulate()`` always adds
    ``initial_diameter``.  A per-round record of the cells is an
    ``on_round`` hook or a trace, not a result field.
    """

    strategy: str
    scheduler: str
    gathered: bool
    rounds: int
    robots_initial: int
    robots_final: int
    metrics: MetricsLog
    events: EventLog
    final_state: Any
    activations: Optional[int] = None
    #: Total byzantine misbehaviors over the run (one per alive
    #: byzantine robot per round); ``None`` when the scheduler had no
    #: byzantine faults enabled.
    byzantine_actions: Optional[int] = None
    extras: Dict[str, Any] = field(default_factory=dict)

    @property
    def merges_total(self) -> int:
        return self.robots_initial - self.robots_final

    def rounds_per_robot(self) -> float:
        """Normalized runtime ``rounds / n`` — constant iff runtime is
        linear, the quantity experiment E1 tracks."""
        return self.rounds / max(self.robots_initial, 1)

    def summary(self) -> Dict[str, Any]:
        """A JSON-serializable headline summary (the ``--json`` CLI
        payload).  Non-primitive extras are dropped, not coerced."""
        out: Dict[str, Any] = {
            "strategy": self.strategy,
            "scheduler": self.scheduler,
            "gathered": self.gathered,
            "rounds": self.rounds,
            "robots_initial": self.robots_initial,
            "robots_final": self.robots_final,
            "merges": self.merges_total,
            "rounds_per_robot": round(self.rounds_per_robot(), 4),
            "events": self.events.counts(),
        }
        if self.activations is not None:
            out["activations"] = self.activations
        if self.byzantine_actions is not None:
            out["byzantine_actions"] = self.byzantine_actions
        out["extras"] = {
            k: v for k, v in self.extras.items() if _jsonable(v)
        }
        return out


# ----------------------------------------------------------------------
# Programs: what a scheduler drives
# ----------------------------------------------------------------------
@dataclass
class FsyncProgram:
    """A controller-over-:class:`SwarmState` workload for the FSYNC
    engine (the grid algorithm and the global-vision baseline).

    ``extras_fn`` is called after the run to harvest strategy-specific
    result fields from the controller (e.g. the [SN14] move count).
    """

    state: Any
    controller: Any
    check_connectivity: bool = True
    extras_fn: Optional[Callable[[], Dict[str, Any]]] = None


@dataclass
class AsyncProgram:
    """A per-activation controller workload for the fair ASYNC engine."""

    state: Any
    controller: Any
    seed: int = 0
    check_connectivity: bool = True


@dataclass(frozen=True)
class StateView:
    """Minimal read-only state adapter handed to ``on_round`` hooks by
    self-clocked programs — mirrors the ``.cells`` surface of
    :class:`~repro.grid.occupancy.SwarmState` so renderers and the
    trace recorder work uniformly."""

    cells: Tuple[Any, ...]

    def __len__(self) -> int:
        return len(self.cells)

    def __iter__(self):
        return iter(self.cells)


@runtime_checkable
class SteppedProgram(Protocol):
    """A self-clocked program over non-grid state (Euclidean
    go-to-center, open- and closed-chain gathering), stepped round by
    round by :class:`repro.api._SteppedEngine` under every time model
    that accepts it.

    ``roster`` returns *stable* robot tokens in the order of
    ``view().cells`` — array indices for the Euclidean program,
    wrapper-maintained ids for the open chain, node ids for the closed
    chain.  A token survives rounds unchanged for as long as its robot
    exists; robots that leave (chain contractions) drop out.

    ``step`` executes one round in which only the robots in ``active``
    perform their look-compute-move cycle (``None``: every robot, the
    FSYNC round) and records the round's metrics and events.
    """

    robots_initial: int

    def done(self) -> bool: ...

    def default_budget(self) -> int: ...

    def roster(self) -> List[Any]: ...

    def step(
        self,
        round_index: int,
        active: Optional[Set[Any]],
        metrics: MetricsLog,
        events: EventLog,
    ) -> None: ...

    def view(self) -> Any: ...

    def result_fields(self) -> Dict[str, Any]: ...


# ----------------------------------------------------------------------
# Registry protocols
# ----------------------------------------------------------------------
@runtime_checkable
class Strategy(Protocol):
    """A registered workload: resolves a :class:`Scenario` into its
    native input and builds the program its scheduler drives.

    ``schedulers`` lists the compatible scheduler keys and
    ``default_scheduler`` picks the canonical one.  ``compare_scenario``
    names the workload's worst-case/showcase family at size ``n`` — the
    CLI ``compare`` command is just this hook over the registry.
    """

    key: str
    description: str
    schedulers: Tuple[str, ...]
    default_scheduler: str
    compare_label: str

    def resolve(self, scenario: Scenario, ctx: SimContext) -> Any: ...

    def build(self, resolved: Any, ctx: SimContext) -> Any: ...

    def compare_scenario(self, n: int) -> Scenario: ...


@runtime_checkable
class Scheduler(Protocol):
    """A registered time model: drives a strategy-built program to
    completion and wraps the outcome into a :class:`RunResult`.

    ``option_names`` declares the ``simulate(**options)`` keywords the
    scheduler consumes (popped from ``SimContext.options`` inside
    ``drive``); the facade validates leftover options against it, so
    misspelled keywords still fail loudly before the run starts.
    """

    key: str
    description: str
    option_names: Tuple[str, ...]

    def drive(self, program: Any, ctx: SimContext) -> RunResult: ...
