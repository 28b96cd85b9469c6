"""Sweep executor: persistent worker processes that survive death.

:class:`PersistentWorkerPool` is the engine under the sweep
orchestrator (:mod:`repro.analysis.orchestrator`) and, through it, the
service.  It is deliberately *not* a
:class:`~concurrent.futures.ProcessPoolExecutor`: that pool marks itself
broken when any worker dies, whereas sweeps must degrade to a retry.
Here a dead worker (poison result, SIGKILL, timeout) is detected via its
process sentinel, its in-flight task is requeued (bounded by
``max_retries``), a replacement worker is spawned, and the ``on_event``
hook hears ``worker_failed`` / ``worker_respawned`` — diagnostics only,
never part of a trajectory.
"""

from __future__ import annotations

import itertools
import multiprocessing
import time
import traceback
from collections import deque
from multiprocessing.connection import wait as _connection_wait
from typing import Callable, Dict, List, Optional, Sequence, Tuple

#: ``on_event(kind, **data)`` hook type for worker lifecycle telemetry.
OnEvent = Callable[..., None]


class WorkerTaskError(RuntimeError):
    """A task raised inside a worker; carries the remote traceback."""


class WorkerCrashLoop(RuntimeError):
    """One task killed ``max_retries + 1`` workers in a row — the task
    itself is poison, retrying further would respawn forever."""


def _pool_worker_main(conn) -> None:
    """Worker loop: ``(task_id, fn, args)`` in, ``(task_id, ok,
    value_or_traceback)`` out; ``None`` or EOF ends the worker."""
    while True:
        try:
            msg = conn.recv()
        except (EOFError, OSError):
            return
        if msg is None:
            return
        task_id, fn, args = msg
        try:
            result = fn(*args)
        except BaseException:  # poison result: report, keep serving
            try:
                conn.send((task_id, False, traceback.format_exc()))
            except (BrokenPipeError, OSError):
                return
        else:
            try:
                conn.send((task_id, True, result))
            except (BrokenPipeError, OSError):
                return


class _Worker:
    """One pool worker: process + duplex pipe + in-flight task."""

    __slots__ = ("process", "conn", "task", "started_at")

    def __init__(self, process, conn) -> None:
        self.process = process
        self.conn = conn
        self.task: Optional[tuple] = None  # (task_id, fn, args)
        self.started_at: float = 0.0


class PersistentWorkerPool:
    """Long-lived worker processes with death detection and requeue.

    Tasks are ``(fn, args)`` with a module-level picklable ``fn``.
    Results are keyed by monotonically increasing task ids, so any
    completion order reduces deterministically.  A worker that dies
    mid-task is respawned and the task requeued (up to ``max_retries``
    times per task); ``task_timeout`` additionally kills and replaces a
    worker stuck longer than the given seconds.  Timeouts and kills are
    *liveness* mechanisms only — requeued tasks are pure functions of
    their arguments, so recovery never changes a result, just when it
    arrives.
    """

    def __init__(
        self,
        workers: int,
        *,
        on_event: Optional[OnEvent] = None,
        task_timeout: Optional[float] = None,
        max_retries: int = 3,
        start_method: Optional[str] = None,
    ) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if start_method is None:
            methods = multiprocessing.get_all_start_methods()
            start_method = "fork" if "fork" in methods else methods[0]
        self._ctx = multiprocessing.get_context(start_method)
        self._on_event = on_event
        self._task_timeout = task_timeout
        self._max_retries = max_retries
        self._workers: List[_Worker] = []
        self._pending: deque = deque()  # (task_id, fn, args)
        self._results: Dict[int, Tuple[bool, object]] = {}
        self._retries: Dict[int, int] = {}
        self._task_ids = itertools.count()
        self._closed = False
        for _ in range(workers):
            self._workers.append(self._spawn())

    # -- lifecycle -----------------------------------------------------
    def _spawn(self) -> _Worker:
        parent_conn, child_conn = self._ctx.Pipe(duplex=True)
        proc = self._ctx.Process(
            target=_pool_worker_main,
            args=(child_conn,),
            # Non-daemonic so a job may start processes of its own; the
            # worker still exits on EOF once the parent's pipe end closes.
            daemon=False,
        )
        proc.start()
        child_conn.close()  # the child holds its own copy
        return _Worker(proc, parent_conn)

    @property
    def worker_count(self) -> int:
        return len(self._workers)

    def worker_pids(self) -> List[int]:
        """Live worker pids (tests kill these to exercise recovery)."""
        return [w.process.pid for w in self._workers]

    def ensure_workers(self, workers: int) -> None:
        """Grow the pool to at least ``workers`` (it never shrinks —
        reuse across sweep calls is the whole point)."""
        while len(self._workers) < workers:
            self._workers.append(self._spawn())

    def close(self) -> None:
        """Stop all workers; idempotent.  Pending tasks are dropped."""
        if self._closed:
            return
        self._closed = True
        for w in self._workers:
            try:
                w.conn.send(None)
            except (BrokenPipeError, OSError):
                pass
        for w in self._workers:
            w.process.join(timeout=2.0)
            if w.process.is_alive():
                w.process.terminate()
                w.process.join(timeout=2.0)
            w.conn.close()
        self._workers = []
        self._pending.clear()

    def __enter__(self) -> "PersistentWorkerPool":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False

    # -- submission ----------------------------------------------------
    def submit(self, fn, args: tuple) -> int:
        """Queue one task; returns its id (results pop via
        :meth:`next_completed` / :meth:`run_all`)."""
        if self._closed:
            raise RuntimeError("pool is closed")
        task_id = next(self._task_ids)
        self._pending.append((task_id, fn, args))
        self._dispatch()
        return task_id

    def _dispatch(self) -> None:
        """Hand pending tasks to idle workers; a send onto a dead
        worker's pipe counts as a death (requeue + respawn)."""
        for slot, worker in enumerate(self._workers):
            if not self._pending:
                return
            if worker.task is not None:
                continue
            task = self._pending[0]
            try:
                worker.conn.send(task)
            except (BrokenPipeError, OSError):
                self._replace_worker(slot, reason="send_failed")
                continue
            self._pending.popleft()
            worker.task = task
            # reprolint: ok[D2] liveness deadline only: recovery
            # re-runs pure tasks, results are timing-independent
            worker.started_at = time.monotonic()

    # -- failure handling ----------------------------------------------
    def _emit(self, kind: str, **data) -> None:
        if self._on_event is not None:
            self._on_event(kind, **data)

    def _replace_worker(self, slot: int, *, reason: str) -> None:
        """Kill/reap a dead or stuck worker, requeue its task (front of
        the queue, bounded retries), and spawn a replacement."""
        worker = self._workers[slot]
        task = worker.task
        pid = worker.process.pid
        self._emit(
            "worker_failed",
            pid=pid,
            reason=reason,
            task=None if task is None else task[0],
        )
        if worker.process.is_alive():
            worker.process.terminate()
        worker.process.join(timeout=2.0)
        if worker.process.is_alive():
            worker.process.kill()
            worker.process.join(timeout=2.0)
        worker.conn.close()
        if task is not None:
            task_id = task[0]
            tries = self._retries.get(task_id, 0) + 1
            self._retries[task_id] = tries
            if tries > self._max_retries:
                self._results[task_id] = (
                    False,
                    WorkerCrashLoop(
                        f"task {task_id} killed {tries} workers "
                        f"(last: {reason}); giving up"
                    ),
                )
            else:
                self._pending.appendleft(task)
        replacement = self._spawn()
        self._workers[slot] = replacement
        self._emit("worker_respawned", pid=replacement.process.pid)

    def _service(self, timeout: Optional[float]) -> None:
        """One readiness round: dispatch, wait on pipes + process
        sentinels, collect results, recover from deaths/timeouts."""
        self._dispatch()
        busy = [
            (slot, w)
            for slot, w in enumerate(self._workers)
            if w.task is not None
        ]
        if not busy:
            return
        # reprolint: ok[D2] liveness deadline only: recovery re-runs
        # pure tasks, results are timing-independent
        now = time.monotonic()
        wait_for = timeout
        if self._task_timeout is not None:
            stuck = []
            earliest = None
            for slot, w in busy:
                deadline = w.started_at + self._task_timeout
                if deadline <= now:
                    stuck.append(slot)
                elif earliest is None or deadline < earliest:
                    earliest = deadline
            for slot in sorted(stuck, reverse=False):
                self._replace_worker(slot, reason="timeout")
            if stuck:
                return
            if earliest is not None:
                slack = max(0.001, earliest - now)
                wait_for = (
                    slack if wait_for is None else min(wait_for, slack)
                )
        handles = [w.conn for _, w in busy] + [
            w.process.sentinel for _, w in busy
        ]
        ready = set(_connection_wait(handles, timeout=wait_for))
        if not ready:
            return
        for slot, w in busy:
            if w.conn in ready:
                try:
                    task_id, ok, value = w.conn.recv()
                except (EOFError, OSError):
                    self._replace_worker(slot, reason="died")
                    continue
                self._results[task_id] = (ok, value)
                w.task = None
            elif w.process.sentinel in ready:
                # Sentinel fired with no buffered result: real death.
                if w.conn.poll():
                    continue  # result raced the exit; next pass reads it
                self._replace_worker(slot, reason="died")
        self._dispatch()

    # -- collection ----------------------------------------------------
    def next_completed(
        self, timeout: Optional[float] = None
    ) -> Optional[Tuple[int, bool, object]]:
        """Pop one completed ``(task_id, ok, value)`` (lowest id first),
        blocking up to ``timeout`` seconds; ``None`` when nothing can
        complete (idle pool or timeout).

        ``timeout=0`` is a true non-blocking poll: it still runs one
        service pass (dispatch queued tasks to freed workers, collect
        finished results without waiting) before answering — a
        zero-timeout caller that never serviced the pool would neither
        observe completions nor keep the queue draining.
        """
        # reprolint: ok[D2] liveness deadline only: recovery re-runs
        # pure tasks, results are timing-independent
        deadline = None if timeout is None else time.monotonic() + timeout
        serviced = False
        while True:
            if self._results:
                task_id = min(self._results)
                ok, value = self._results.pop(task_id)
                return task_id, ok, value
            inflight = any(w.task is not None for w in self._workers)
            if not inflight and not self._pending:
                return None
            remaining = None
            if deadline is not None:
                # reprolint: ok[D2] liveness deadline only: recovery
                # re-runs pure tasks, results are timing-independent
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    if serviced:
                        return None
                    remaining = 0
            self._service(remaining)
            serviced = True

    def run_all(self, tasks: Sequence[Tuple[Callable, tuple]]) -> list:
        """Barrier helper: run every ``(fn, args)`` task, return values
        in submission order; raises on the first failed task."""
        ids = [self.submit(fn, args) for fn, args in tasks]
        want = set(ids)
        collected: Dict[int, Tuple[bool, object]] = {}
        while want:
            item = self.next_completed()
            if item is None:
                raise RuntimeError(
                    f"pool went idle with {len(want)} tasks uncollected"
                )
            task_id, ok, value = item
            if task_id in want:
                want.discard(task_id)
                collected[task_id] = (ok, value)
        out = []
        for task_id in ids:
            ok, value = collected[task_id]
            if not ok:
                if isinstance(value, BaseException):
                    raise value
                raise WorkerTaskError(
                    f"worker task failed:\n{value}"
                )
            out.append(value)
        return out
