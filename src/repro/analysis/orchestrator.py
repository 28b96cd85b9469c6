"""The sweep orchestrator: one persistent pool for every experiment.

Sweeps are embarrassingly parallel, but the seed's per-call
``ProcessPoolExecutor`` paid a full pool spawn for every
``run_scaling`` / ``run_ablation`` / ``run_robustness`` call — dozens
of times per figure build.  :class:`SweepOrchestrator` keeps one
:class:`~repro.engine.executors.PersistentWorkerPool` alive across
calls (the process-global :func:`default_orchestrator` is what
``experiments._map_maybe_parallel`` routes through), adds job-level
submit/poll/collect with stable ids, and inherits the pool's death
handling: a worker SIGKILLed mid-sweep is respawned, its job requeued,
and the sweep's results are identical to an undisturbed run
(``tests/test_orchestrator.py`` kills workers to pin this).

For long simulations :class:`SweepJobStore` adds durability on top:
jobs live in a directory (``spec.json`` + ``results/*.json`` +
``traces/*.jsonl``), grid-strategy jobs record checkpointed traces
(:class:`~repro.trace.recorder.TraceRecorder` with a ``checkpoint_fn``),
and :func:`run_store` resumes interrupted jobs from their last
checkpoint instead of from round zero — the CLI's ``sweep`` subcommands
are a thin shell over this module.

Determinism: results never depend on worker count, scheduling, or
recovery.  Jobs are pure functions of their (picklable) descriptions,
collection is keyed by stable ids, and ``collect`` returns results in
submission order.
"""

from __future__ import annotations

import atexit
import dataclasses
import json
import os
from pathlib import Path
from typing import (
    Callable,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.analysis.experiments import ScalingPoint, SweepJob, run_job
from repro.core.config import AlgorithmConfig
from repro.engine.executors import (
    OnEvent,
    PersistentWorkerPool,
    WorkerTaskError,
)

#: Collection wait modes: ``gather`` blocks for everything and returns
#: submission order; ``yield`` streams ``(job_id, result)`` pairs in
#: completion order.
WAIT_MODES = ("gather", "yield")


def _run_chunk(fn: Callable, chunk: tuple) -> list:
    """Worker task behind :meth:`SweepOrchestrator.map`: apply ``fn``
    over one chunk of items, preserving order."""
    return [fn(item) for item in chunk]


class SweepOrchestrator:
    """Job-level orchestration over one persistent worker pool.

    ``workers`` is the pool size (default: ``min(4, cpus)``); the pool
    is created lazily on first use and grows (never shrinks) via
    :meth:`ensure_workers`.  ``on_event`` hears the pool's
    ``worker_failed`` / ``worker_respawned`` telemetry; every event is
    also appended to :attr:`worker_events` for inspection.
    """

    def __init__(
        self,
        workers: Optional[int] = None,
        *,
        on_event: Optional[OnEvent] = None,
        task_timeout: Optional[float] = None,
    ) -> None:
        if workers is None:
            workers = min(4, os.cpu_count() or 1)
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self._workers = workers
        self._user_on_event = on_event
        self._task_timeout = task_timeout
        self._pool_obj: Optional[PersistentWorkerPool] = None
        self._closed = False
        #: Lifecycle telemetry log: ``(kind, data)`` pairs.
        self.worker_events: List[Tuple[str, dict]] = []
        self._next_job = 1
        self._order: List[str] = []  # submission order
        self._task_of: Dict[str, int] = {}
        self._job_of: Dict[int, str] = {}
        self._done: Dict[str, Tuple[bool, object]] = {}

    # -- pool lifecycle ------------------------------------------------
    def _on_event(self, kind: str, **data) -> None:
        self.worker_events.append((kind, data))
        if self._user_on_event is not None:
            self._user_on_event(kind, **data)

    def _pool(self) -> PersistentWorkerPool:
        if self._closed:
            raise RuntimeError("orchestrator is closed")
        if self._pool_obj is None:
            self._pool_obj = PersistentWorkerPool(
                self._workers,
                on_event=self._on_event,
                task_timeout=self._task_timeout,
            )
        return self._pool_obj

    @property
    def closed(self) -> bool:
        return self._closed

    def ensure_workers(self, workers: int) -> None:
        """Grow the pool to at least ``workers``."""
        self._workers = max(self._workers, workers)
        if self._pool_obj is not None:
            self._pool_obj.ensure_workers(self._workers)

    def worker_pids(self) -> List[int]:
        """Live worker pids (tests kill these to exercise recovery)."""
        return self._pool().worker_pids()

    def close(self) -> None:
        """Stop the pool; idempotent.  Uncollected jobs are dropped."""
        self._closed = True
        if self._pool_obj is not None:
            pool = self._pool_obj
            self._pool_obj = None
            pool.close()

    def __enter__(self) -> "SweepOrchestrator":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False

    # -- job submission / collection -----------------------------------
    def submit_task(
        self, fn: Callable, args: tuple = ()
    ) -> str:
        """Queue one arbitrary call as a job; returns its stable id.

        The generic entry point under :meth:`submit` — ``fn`` and
        ``args`` must be picklable (module-level function, plain-data
        arguments).  The serving layer
        (:mod:`repro.service.workers`) dispatches its run executions
        through this, sharing the persistent pool, the stable-id
        bookkeeping, and the pool's respawn-and-requeue recovery with
        the sweep machinery.
        """
        job_id = f"job-{self._next_job:06d}"
        self._next_job += 1
        task_id = self._pool().submit(fn, tuple(args))
        self._order.append(job_id)
        self._task_of[job_id] = task_id
        self._job_of[task_id] = job_id
        return job_id

    def submit(self, job: SweepJob) -> str:
        """Queue one sweep job; returns its stable id (``job-000001``,
        numbered in submission order)."""
        return self.submit_task(run_job, (job,))

    def submit_all(self, jobs: Sequence[SweepJob]) -> List[str]:
        return [self.submit(job) for job in jobs]

    def _route(self, task_id: int, ok: bool, value: object) -> None:
        job_id = self._job_of.pop(task_id, None)
        if job_id is not None:
            self._done[job_id] = (ok, value)

    def _unwrap(self, job_id: str) -> ScalingPoint:
        ok, value = self._done[job_id]
        if ok:
            return value
        if isinstance(value, BaseException):
            raise value
        raise WorkerTaskError(f"sweep job {job_id} failed:\n{value}")

    def outcome(self, job_id: str) -> Optional[Tuple[bool, object]]:
        """The raw ``(ok, value)`` of a completed job, else ``None``.

        Non-blocking and non-raising (unlike :meth:`collect`):
        ``value`` is the task's return value when ``ok`` or its
        exception/traceback text when not.  Call :meth:`poll` first to
        drain newly completed tasks.  Unknown ids raise ``KeyError``.
        """
        if job_id not in self._done and job_id not in self._task_of:
            raise KeyError(f"unknown job id: {job_id}")
        return self._done.get(job_id)

    def poll(self) -> Dict[str, str]:
        """Non-blocking status of every submitted job:
        ``pending`` / ``done`` / ``failed``."""
        if self._pool_obj is not None:
            while True:
                item = self._pool_obj.next_completed(timeout=0)
                if item is None:
                    break
                self._route(*item)
        out: Dict[str, str] = {}
        for job_id in self._order:
            if job_id not in self._done:
                out[job_id] = "pending"
            else:
                ok, _ = self._done[job_id]
                out[job_id] = "done" if ok else "failed"
        return out

    def collect(
        self, *, mode: str = "gather"
    ) -> Union[
        List[Tuple[str, ScalingPoint]],
        Iterator[Tuple[str, ScalingPoint]],
    ]:
        """Collect every submitted job's result.

        ``mode="gather"`` blocks until all jobs finish and returns
        ``(job_id, point)`` pairs in submission order; ``mode="yield"``
        returns an iterator streaming pairs in completion order (useful
        for progress display — a slow job does not gate the rest).
        Either mode raises on a failed job (a task that exhausted the
        pool's retry budget surfaces its
        :class:`~repro.engine.executors.WorkerCrashLoop`).
        """
        if mode not in WAIT_MODES:
            raise ValueError(
                f"mode must be one of {WAIT_MODES}, got {mode!r}"
            )
        if mode == "gather":
            self._wait_for(
                {
                    self._task_of[jid]
                    for jid in self._order
                    if jid not in self._done
                }
            )
            return [(jid, self._unwrap(jid)) for jid in self._order]
        return self._iter_completed()

    def _wait_for(self, task_ids: set) -> None:
        pool = self._pool()
        while task_ids:
            item = pool.next_completed()
            if item is None:
                raise RuntimeError(
                    f"pool went idle with {len(task_ids)} tasks "
                    f"uncollected"
                )
            task_id, ok, value = item
            task_ids.discard(task_id)
            self._route(task_id, ok, value)

    def _iter_completed(self) -> Iterator[Tuple[str, ScalingPoint]]:
        pending = [
            jid for jid in self._order if jid not in self._done
        ]
        emitted = set()
        # Anything already collected streams out first.
        for jid in self._order:
            if jid in self._done:
                emitted.add(jid)
                yield jid, self._unwrap(jid)
        want = {self._task_of[jid] for jid in pending}
        pool = self._pool()
        while want:
            item = pool.next_completed()
            if item is None:
                raise RuntimeError(
                    f"pool went idle with {len(want)} jobs uncollected"
                )
            task_id, ok, value = item
            want.discard(task_id)
            self._route(task_id, ok, value)
            jid = next(
                (
                    j
                    for j in self._order
                    if j in self._done and j not in emitted
                ),
                None,
            )
            while jid is not None:
                emitted.add(jid)
                yield jid, self._unwrap(jid)
                jid = next(
                    (
                        j
                        for j in self._order
                        if j in self._done and j not in emitted
                    ),
                    None,
                )

    # -- order-preserving map ------------------------------------------
    def map(
        self,
        fn: Callable,
        items: Sequence,
        *,
        chunksize: Optional[int] = None,
    ) -> list:
        """Order-preserving parallel map over the persistent pool.

        ``fn`` and every item must be picklable.  ``chunksize`` batches
        items per worker task (default: ~4 chunks per worker) —
        per-task IPC is one pickle either way, so batching amortizes
        dispatch for large sweeps without hurting small ones.
        """
        items = list(items)
        if not items:
            return []
        if chunksize is None:
            chunksize = max(
                1, -(-len(items) // (self._workers * 4))
            )
        if chunksize < 1:
            raise ValueError(
                f"chunksize must be >= 1, got {chunksize}"
            )
        chunks = [
            tuple(items[i : i + chunksize])
            for i in range(0, len(items), chunksize)
        ]
        pool = self._pool()
        ids = [
            pool.submit(_run_chunk, (fn, chunk)) for chunk in chunks
        ]
        want = set(ids)
        got: Dict[int, Tuple[bool, object]] = {}
        while want:
            item = pool.next_completed()
            if item is None:
                raise RuntimeError(
                    f"pool went idle with {len(want)} chunks "
                    f"uncollected"
                )
            task_id, ok, value = item
            if task_id in want:
                want.discard(task_id)
                got[task_id] = (ok, value)
            else:
                # A sweep job's completion surfaced mid-map: route it
                # to its job record instead of dropping it.
                self._route(task_id, ok, value)
        out: list = []
        for task_id in ids:
            ok, value = got[task_id]
            if not ok:
                if isinstance(value, BaseException):
                    raise value
                raise WorkerTaskError(
                    f"parallel map task failed:\n{value}"
                )
            out.extend(value)
        return out


# ----------------------------------------------------------------------
# The process-global orchestrator (experiments route through this)
# ----------------------------------------------------------------------
_DEFAULT: Optional[SweepOrchestrator] = None


def default_orchestrator(
    workers: Optional[int] = None,
) -> SweepOrchestrator:
    """The shared orchestrator: one pool reused by every
    ``run_scaling`` / ``run_ablation`` / ``run_robustness`` call in the
    process (grown to the largest ``workers`` ever requested, closed at
    interpreter exit)."""
    global _DEFAULT
    if _DEFAULT is None or _DEFAULT.closed:
        _DEFAULT = SweepOrchestrator(workers)
    elif workers is not None:
        _DEFAULT.ensure_workers(workers)
    return _DEFAULT


def _close_default() -> None:
    global _DEFAULT
    if _DEFAULT is not None:
        orch = _DEFAULT
        _DEFAULT = None
        orch.close()


atexit.register(_close_default)


# ----------------------------------------------------------------------
# Durable job stores (the CLI's ``sweep`` subcommands)
# ----------------------------------------------------------------------
def _job_to_dict(job: SweepJob) -> dict:
    return {
        "family": job.family,
        "n": job.n,
        "seed": job.seed,
        "cfg": (
            None if job.cfg is None else dataclasses.asdict(job.cfg)
        ),
        "check_connectivity": job.check_connectivity,
        "max_rounds": job.max_rounds,
        "strategy": job.strategy,
        "scheduler": job.scheduler,
        "options": [list(pair) for pair in job.options],
    }


def _job_from_dict(data: dict) -> SweepJob:
    cfg = data.get("cfg")
    return SweepJob(
        family=data["family"],
        n=int(data["n"]),
        seed=data.get("seed"),
        cfg=None if cfg is None else AlgorithmConfig.from_dict(cfg),
        check_connectivity=bool(data.get("check_connectivity", True)),
        max_rounds=data.get("max_rounds"),
        strategy=data.get("strategy", "grid"),
        scheduler=data.get("scheduler"),
        options=tuple(
            (str(k), v) for k, v in data.get("options", ())
        ),
    )


class SweepJobStore:
    """A sweep as a directory: durable specs, results, and traces.

    Layout::

        <root>/spec.json            the job list (written once)
        <root>/results/<id>.json    one result or failure per job
        <root>/traces/<id>.jsonl    checkpointed trace (grid jobs)

    Job ids are ``job-000001`` ... in spec order — stable across
    processes, so ``sweep status`` / ``collect`` / resumed ``run``
    invocations all agree.  Results are written atomically (temp file +
    rename) by whichever worker finishes the job.
    """

    def __init__(self, root: Union[str, Path]) -> None:
        self.root = Path(root)

    # -- creation / opening --------------------------------------------
    @classmethod
    def create(
        cls, root: Union[str, Path], jobs: Sequence[SweepJob]
    ) -> "SweepJobStore":
        store = cls(root)
        if store.spec_path.exists():
            raise FileExistsError(
                f"sweep store already exists: {store.spec_path}"
            )
        if not jobs:
            raise ValueError("a sweep needs at least one job")
        store.root.mkdir(parents=True, exist_ok=True)
        (store.root / "results").mkdir(exist_ok=True)
        (store.root / "traces").mkdir(exist_ok=True)
        spec = {"jobs": [_job_to_dict(job) for job in jobs]}
        tmp = store.spec_path.with_suffix(".tmp")
        tmp.write_text(json.dumps(spec, indent=2) + "\n")
        tmp.rename(store.spec_path)
        return store

    @classmethod
    def open(cls, root: Union[str, Path]) -> "SweepJobStore":
        store = cls(root)
        if not store.spec_path.exists():
            raise FileNotFoundError(
                f"no sweep store at {store.root} (missing spec.json)"
            )
        return store

    @property
    def spec_path(self) -> Path:
        return self.root / "spec.json"

    # -- contents ------------------------------------------------------
    def jobs(self) -> Dict[str, SweepJob]:
        """``{job_id: job}`` in spec order."""
        spec = json.loads(self.spec_path.read_text())
        return {
            f"job-{i:06d}": _job_from_dict(data)
            for i, data in enumerate(spec["jobs"], start=1)
        }

    def result_path(self, job_id: str) -> Path:
        return self.root / "results" / f"{job_id}.json"

    def trace_path(self, job_id: str) -> Path:
        return self.root / "traces" / f"{job_id}.jsonl"

    def result(self, job_id: str) -> Optional[ScalingPoint]:
        """The job's result, ``None`` while pending; raises
        :class:`~repro.engine.executors.WorkerTaskError` for a recorded
        failure."""
        path = self.result_path(job_id)
        if not path.exists():
            return None
        data = json.loads(path.read_text())
        if "failed" in data:
            raise WorkerTaskError(
                f"sweep job {job_id} failed:\n{data['failed']}"
            )
        return ScalingPoint(**data)

    def write_result(self, job_id: str, point: ScalingPoint) -> None:
        self._write_json(job_id, dataclasses.asdict(point))

    def write_failure(self, job_id: str, message: str) -> None:
        self._write_json(job_id, {"failed": message})

    def _write_json(self, job_id: str, data: dict) -> None:
        path = self.result_path(job_id)
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(data) + "\n")
        tmp.rename(path)

    def status(self) -> Dict[str, str]:
        """Per-job state: ``pending`` / ``checkpointed`` / ``done`` /
        ``failed`` (``checkpointed`` = no result yet, but a resumable
        trace exists)."""
        out: Dict[str, str] = {}
        for job_id in self.jobs():
            path = self.result_path(job_id)
            if path.exists():
                data = json.loads(path.read_text())
                out[job_id] = (
                    "failed" if "failed" in data else "done"
                )
            elif self.trace_path(job_id).exists():
                out[job_id] = "checkpointed"
            else:
                out[job_id] = "pending"
        return out


def _checkpointable(job: SweepJob) -> bool:
    """Only plain grid/FSYNC jobs run through the checkpointing engine
    path; everything else replays from scratch on resume (correct
    either way — checkpoints are an optimization, not a semantic)."""
    return (
        job.strategy == "grid"
        and job.scheduler in (None, "fsync")
        and not job.options
    )


def _run_store_job(
    root: str, job_id: str, checkpoint_every: int
) -> ScalingPoint:
    """Worker task behind :func:`run_store`: execute (or resume) one
    stored job, writing the result and checkpointed trace into the
    store.  Results are written from the worker, so a sweep interrupted
    after this returns still keeps the job's outcome."""
    store = SweepJobStore.open(root)
    job = store.jobs()[job_id]
    if not _checkpointable(job):
        point = run_job(job)
    else:
        point = _run_grid_job_checkpointed(
            store, job_id, job, checkpoint_every
        )
    store.write_result(job_id, point)
    return point


def _run_grid_job_checkpointed(
    store: SweepJobStore,
    job_id: str,
    job: SweepJob,
    checkpoint_every: int,
) -> ScalingPoint:
    """Run one grid job under a checkpointing recorder, resuming from
    the job's last trace checkpoint when one exists."""
    from repro.engine.scheduler import RoundEngine
    from repro.engine.termination import default_round_budget, run_engine
    from repro.grid.occupancy import SwarmState
    from repro.swarms.generators import family
    from repro.trace.recorder import TraceRecorder, read_resumable_trace
    from repro.trace.replay import (
        controller_checkpoint,
        last_checkpoint,
        resume_engine,
    )
    from repro.core.algorithm import GatherOnGrid

    trace_path = store.trace_path(job_id)
    meta, rows = read_resumable_trace(trace_path)
    row = last_checkpoint(rows)
    if row is not None:
        engine = resume_engine(
            row,
            job.cfg,
            check_connectivity=job.check_connectivity,
        )
        budget = int(meta["budget"])
        n0 = int(meta["n"])
        diameter = int(meta["initial_diameter"])
        mode = "a"
    else:
        cells = family(job.family, job.n, seed=job.seed)
        state = SwarmState(cells)
        n0 = len(state)
        diameter = state.diameter_chebyshev()
        budget = (
            job.max_rounds
            if job.max_rounds is not None
            else default_round_budget(n0)
        )
        meta = {
            "family": job.family,
            "target_n": job.n,
            "seed": job.seed,
            "n": n0,
            "initial_diameter": diameter,
            "budget": budget,
        }
        engine = RoundEngine(
            state,
            GatherOnGrid(job.cfg),
            check_connectivity=job.check_connectivity,
        )
        mode = "w"
    with trace_path.open(mode) as fh:
        # Resuming: the rows after the checkpoint are already on disk.
        recorder = TraceRecorder(
            fh,
            meta,
            checkpoint_fn=lambda: controller_checkpoint(engine.controller),
            every=checkpoint_every,
            resume_after=rows[-1] if mode == "a" else None,
        )
        result = run_engine(engine, max_rounds=budget, on_round=recorder)
    return ScalingPoint(
        family=job.family,
        n=n0,
        rounds=result.rounds,
        gathered=result.gathered,
        merges=n0 - result.robots_final,
        diameter=diameter,
        strategy="grid",
        scheduler="fsync",
    )


def run_store(
    store: SweepJobStore,
    *,
    workers: Optional[int] = None,
    checkpoint_every: int = 200,
    orchestrator: Optional[SweepOrchestrator] = None,
    on_result: Optional[Callable[[str, ScalingPoint], None]] = None,
) -> Dict[str, ScalingPoint]:
    """Execute every unfinished job of a store; returns all results.

    Jobs already ``done`` are loaded, not re-run — so a ``run`` after
    an interruption (or after new ``sweep run`` invocations on the same
    store) finishes only what is missing, resuming checkpointed grid
    jobs mid-simulation.  Failed jobs are retried.  ``on_result`` fires
    as each job completes (the CLI's progress line).
    """
    jobs = store.jobs()
    status = store.status()
    results: Dict[str, ScalingPoint] = {}
    pending: List[str] = []
    for job_id in jobs:
        if status[job_id] == "done":
            results[job_id] = store.result(job_id)
            if on_result is not None:
                on_result(job_id, results[job_id])
        else:
            pending.append(job_id)
    if not pending:
        return results
    own = orchestrator is None
    orch = orchestrator or SweepOrchestrator(workers)
    try:
        if workers is not None:
            orch.ensure_workers(workers)
        pool = orch._pool()
        task_of = {
            pool.submit(
                _run_store_job,
                (str(store.root), job_id, checkpoint_every),
            ): job_id
            for job_id in pending
        }
        want = set(task_of)
        while want:
            item = pool.next_completed()
            if item is None:
                raise RuntimeError(
                    f"pool went idle with {len(want)} jobs uncollected"
                )
            task_id, ok, value = item
            if task_id not in want:
                orch._route(task_id, ok, value)
                continue
            want.discard(task_id)
            job_id = task_of[task_id]
            if not ok:
                message = (
                    "".join(value.args)
                    if isinstance(value, BaseException)
                    else str(value)
                )
                store.write_failure(job_id, message)
                if isinstance(value, BaseException):
                    raise value
                raise WorkerTaskError(
                    f"sweep job {job_id} failed:\n{value}"
                )
            results[job_id] = value
            if on_result is not None:
                on_result(job_id, value)
    finally:
        if own:
            orch.close()
    return dict(sorted(results.items()))
