"""The worker task behind the service: execute (or resume) one run.

:func:`execute_run` is a module-level picklable function dispatched
onto the orchestrator's persistent worker pool; everything it needs is
re-opened from the registry root, so it survives pool respawns and a
server restart re-dispatching it.

Execution writes a per-round flushed JSONL trace next to the record —
the server tails it for Server-Sent Events and renders SVG frames from
its rows — and the worker itself owns every record transition from
``running`` onward, so a dead server still leaves finished runs
``done`` with metrics on disk.

Two execution paths, mirroring the sweep store
(:func:`repro.analysis.orchestrator._run_grid_job_checkpointed`):

* plain grid/FSYNC runs go through ``simulate()`` with a pre-built
  controller and a checkpointing
  :class:`~repro.trace.recorder.TraceRecorder` hook, so a killed run
  resumes from its last embedded checkpoint via
  :func:`repro.trace.replay.resume_engine` — continuing the *same*
  trajectory, with metrics identical to an undisturbed run, and
  appending only the rounds its trace does not hold yet;
* everything else (other strategies/schedulers, option-carrying runs)
  records a plain trace and restarts from scratch on recovery —
  correct either way, checkpoints are an optimization.

Fresh runs call :func:`repro.api.simulate` itself, so ``metrics`` in
the finished record is bit-identical to a direct ``simulate(...)
.summary()`` with the same parameters (the service E2E test pins
this).
"""

from __future__ import annotations

import time
from typing import Any, Dict, List, Optional, Tuple

from repro.api import STRATEGIES, simulate
from repro.core.algorithm import GatherOnGrid
from repro.core.config import AlgorithmConfig
from repro.engine.events import EventLog
from repro.engine.protocols import Scenario, SimContext
from repro.engine.termination import (
    TERMINAL_KINDS,
    default_round_budget,
    run_engine,
)
from repro.service.records import RunRegistry
from repro.trace.recorder import TraceRecorder, read_resumable_trace
from repro.trace.replay import (
    controller_checkpoint,
    last_checkpoint,
    resume_engine,
)


def scenario_from_params(params: Dict[str, Any]) -> Scenario:
    """The :class:`Scenario` described by a submit payload."""
    payload = params.get("payload")
    if payload is not None:
        payload = [tuple(p) for p in payload]
    return Scenario(
        family=params.get("family"),
        n=params.get("n"),
        seed=params.get("seed"),
        payload=payload,
    )


def config_from_params(
    params: Dict[str, Any],
) -> Optional[AlgorithmConfig]:
    cfg = params.get("config")
    return None if cfg is None else AlgorithmConfig.from_dict(cfg)


def checkpointable(params: Dict[str, Any]) -> bool:
    """Only plain grid/FSYNC runs use the checkpointing engine path
    (same predicate as the sweep store's ``_checkpointable``)."""
    return (
        params.get("strategy", "grid") == "grid"
        and params.get("scheduler") in (None, "fsync")
        and not params.get("options")
    )


def _terminal_events(events: EventLog) -> List[Dict[str, Any]]:
    return [
        {"round": e.round_index, "kind": e.kind, "data": dict(e.data)}
        for e in events
        if e.kind in TERMINAL_KINDS
    ]


def execute_run(
    root: str, run_id: str, checkpoint_every: int = 50
) -> Dict[str, Any]:
    """Execute one registered run to completion; returns its metrics.

    Record transitions are written from here (the worker), so the
    outcome is durable no matter what happens to the dispatching
    server.  Exceptions are recorded as ``failed`` *and* re-raised, so
    the pool's completion routing still sees the failure.
    """
    registry = RunRegistry(root)
    record = registry.get(run_id)
    registry.update(
        run_id, status="running", started_at=time.time(), error=None
    )
    try:
        summary, terminal, resumed = _execute(
            registry, run_id, record.params, checkpoint_every
        )
    except BaseException as exc:
        registry.update(
            run_id,
            status="failed",
            finished_at=time.time(),
            error=f"{type(exc).__name__}: {exc}",
        )
        raise
    registry.update(
        run_id,
        status="done",
        finished_at=time.time(),
        metrics=summary,
        terminal=terminal,
        resumed_from_round=resumed,
    )
    return summary


def _execute(
    registry: RunRegistry,
    run_id: str,
    params: Dict[str, Any],
    checkpoint_every: int,
) -> Tuple[Dict[str, Any], List[Dict[str, Any]], Optional[int]]:
    if checkpointable(params):
        return _execute_grid_checkpointed(
            registry, run_id, params, checkpoint_every
        )
    return _execute_plain(registry, run_id, params)


def _header_meta(
    run_id: str,
    params: Dict[str, Any],
    scheduler: str,
    cells: List[Any],
) -> Dict[str, Any]:
    """The trace header: run identity plus everything the server needs
    to render round 0 and to resume (initial cells, budget, sizes)."""
    unique = sorted(set(tuple(c) for c in cells))
    meta: Dict[str, Any] = {
        "run_id": run_id,
        "strategy": params.get("strategy", "grid"),
        "scheduler": scheduler,
        "n": len(unique),
        "initial_cells": [list(c) for c in unique],
    }
    for key in ("family", "seed"):
        if params.get(key) is not None:
            meta[key] = params[key]
    return meta


def _flushing(recorder: TraceRecorder) -> Any:
    """Wrap a recorder so every row reaches the disk immediately — the
    server process tails the file for SSE, so rows must not sit in the
    worker's userspace buffer until the run ends."""

    def hook(round_index: int, state: Any) -> None:
        recorder(round_index, state)
        recorder.fh.flush()

    return hook


def _execute_grid_checkpointed(
    registry: RunRegistry,
    run_id: str,
    params: Dict[str, Any],
    checkpoint_every: int,
) -> Tuple[Dict[str, Any], List[Dict[str, Any]], Optional[int]]:
    trace_path = registry.trace_path(run_id)
    cfg = config_from_params(params)
    check = bool(params.get("check_connectivity", True))

    meta, rows = read_resumable_trace(trace_path)
    row = last_checkpoint(rows)

    if row is not None:
        # Resume the interrupted trajectory from its last checkpoint;
        # the rows after it are already in the trace.
        engine = resume_engine(row, cfg, check_connectivity=check)
        budget = int(meta["budget"])
        with trace_path.open("a") as fh:
            recorder = TraceRecorder(
                fh,
                meta,
                checkpoint_fn=lambda: controller_checkpoint(
                    engine.controller
                ),
                every=checkpoint_every,
                resume_after=rows[-1],
            )
            result = run_engine(
                engine, max_rounds=budget, on_round=_flushing(recorder)
            )
        # The engine only saw the tail, so the initial-population
        # fields come from the header.  Event counts cover the resumed
        # tail plus the terminal event (documented in docs/service.md).
        result.strategy = "grid"
        result.scheduler = "fsync"
        result.robots_initial = int(meta["n"])
        result.extras["initial_diameter"] = meta["initial_diameter"]
        return (
            result.summary(),
            _terminal_events(result.events),
            row.round_index,
        )

    # Fresh run: resolve the scenario once to write an eager header
    # (round-0 frames and resume metadata), then run through the
    # facade itself with a pre-built controller — so the recorded
    # metrics are bit-identical to a direct simulate() call.
    scenario = scenario_from_params(params)
    cells = STRATEGIES["grid"].resolve(
        scenario, SimContext(seed=params.get("seed"))
    )
    controller = GatherOnGrid(cfg or AlgorithmConfig())
    meta = _header_meta(run_id, params, "fsync", cells)
    max_rounds = params.get("max_rounds")
    meta["budget"] = (
        int(max_rounds)
        if max_rounds is not None
        else default_round_budget(int(meta["n"]))
    )
    meta["initial_diameter"] = _span(meta["initial_cells"])
    with trace_path.open("w") as fh:
        recorder = TraceRecorder(
            fh,
            meta,
            checkpoint_fn=lambda: controller_checkpoint(controller),
            every=checkpoint_every,
        )
        recorder.write_header()
        result = simulate(
            scenario,
            strategy="grid",
            scheduler="fsync",
            config=cfg,
            seed=params.get("seed"),
            max_rounds=max_rounds,
            check_connectivity=check,
            on_round=_flushing(recorder),
            controller=controller,
        )
    return result.summary(), _terminal_events(result.events), None


def _execute_plain(
    registry: RunRegistry,
    run_id: str,
    params: Dict[str, Any],
) -> Tuple[Dict[str, Any], List[Dict[str, Any]], Optional[int]]:
    """Any strategy/scheduler combination: plain flushed trace, no
    checkpoints (recovery restarts the run from round zero)."""
    strategy = params.get("strategy", "grid")
    scheduler = params.get("scheduler")
    scenario = scenario_from_params(params)
    strat = STRATEGIES[strategy]
    cells = strat.resolve(scenario, SimContext(seed=params.get("seed")))
    scheduler_key = (
        scheduler if scheduler is not None else strat.default_scheduler
    )
    meta = _header_meta(run_id, params, scheduler_key, cells)
    trace_path = registry.trace_path(run_id)
    with trace_path.open("w") as fh:
        recorder = TraceRecorder(fh, meta)
        recorder.write_header()
        result = simulate(
            scenario,
            strategy=strategy,
            scheduler=scheduler,
            config=config_from_params(params),
            seed=params.get("seed"),
            max_rounds=params.get("max_rounds"),
            check_connectivity=bool(
                params.get("check_connectivity", True)
            ),
            on_round=_flushing(recorder),
            **dict(params.get("options") or {}),
        )
    return result.summary(), _terminal_events(result.events), None


def _span(cells: List[Any]) -> float:
    xs = [c[0] for c in cells]
    ys = [c[1] for c in cells]
    return max(max(xs) - min(xs), max(ys) - min(ys))
