"""The persistent worker pool behind sweeps and the service.

The recovery tests SIGKILL real worker processes — the pool must
detect the death, respawn, requeue, emit lifecycle events, and keep
every result bit-identical to an undisturbed run.
"""

from __future__ import annotations

import os
import signal
import time

import pytest

from repro.engine.executors import (
    PersistentWorkerPool,
    WorkerCrashLoop,
    WorkerTaskError,
)


def _square(x):
    return x * x


def _boom(x):
    raise RuntimeError(f"boom {x}")


def _suicide(x):
    os.kill(os.getpid(), signal.SIGKILL)


def _sleep_forever(x):
    time.sleep(3600)


class TestPersistentWorkerPool:
    def test_run_all_preserves_submission_order(self):
        with PersistentWorkerPool(3) as pool:
            out = pool.run_all([(_square, (i,)) for i in range(20)])
        assert out == [i * i for i in range(20)]

    def test_task_exception_carries_remote_traceback(self):
        with PersistentWorkerPool(2) as pool:
            with pytest.raises(WorkerTaskError, match="boom 7"):
                pool.run_all([(_boom, (7,))])
            # the worker survives a poison task and keeps serving
            assert pool.run_all([(_square, (3,))]) == [9]

    def test_sigkilled_worker_respawns_and_requeues(self):
        events = []

        def on_event(kind, **data):
            events.append(kind)

        with PersistentWorkerPool(2, on_event=on_event) as pool:
            pids = pool.worker_pids()
            ids = [pool.submit(_square, (i,)) for i in range(8)]
            os.kill(pids[0], signal.SIGKILL)
            got = {}
            while len(got) < len(ids):
                task_id, ok, value = pool.next_completed()
                assert ok
                got[task_id] = value
            assert [got[i] for i in ids] == [i * i for i in range(8)]
            assert "worker_failed" in events
            assert "worker_respawned" in events
            assert pool.worker_count == 2
            assert pool.worker_pids() != pids

    def test_zero_timeout_poll_drains_the_queue(self):
        # A pure-polling consumer (the service's completion poller)
        # calls next_completed(timeout=0) in a loop.  That poll must
        # still service the pool: collect finished results AND hand
        # queued tasks to freed workers — with 1 worker and 3 tasks,
        # tasks 2 and 3 only ever run via this path.
        with PersistentWorkerPool(1) as pool:
            ids = [pool.submit(_square, (i,)) for i in range(3)]
            got = {}
            deadline = time.monotonic() + 30
            while len(got) < len(ids):
                assert time.monotonic() < deadline, "queue stalled"
                item = pool.next_completed(timeout=0)
                if item is None:
                    time.sleep(0.01)
                    continue
                task_id, ok, value = item
                assert ok
                got[task_id] = value
        assert [got[i] for i in ids] == [0, 1, 4]

    def test_poison_task_gives_up_after_max_retries(self):
        with PersistentWorkerPool(1, max_retries=2) as pool:
            with pytest.raises(WorkerCrashLoop, match="killed 3"):
                pool.run_all([(_suicide, (0,))])
            # pool still healthy afterwards
            assert pool.run_all([(_square, (5,))]) == [25]

    def test_task_timeout_kills_stuck_worker(self):
        events = []

        def on_event(kind, **data):
            events.append((kind, data.get("reason")))

        with PersistentWorkerPool(
            1, on_event=on_event, task_timeout=0.3, max_retries=0
        ) as pool:
            with pytest.raises(WorkerCrashLoop):
                pool.run_all([(_sleep_forever, (0,))])
        assert ("worker_failed", "timeout") in events

    def test_ensure_workers_grows_only(self):
        with PersistentWorkerPool(1) as pool:
            pool.ensure_workers(3)
            assert pool.worker_count == 3
            pool.ensure_workers(2)
            assert pool.worker_count == 3

    def test_close_is_idempotent_and_rejects_submits(self):
        pool = PersistentWorkerPool(1)
        pool.close()
        pool.close()
        with pytest.raises(RuntimeError, match="closed"):
            pool.submit(_square, (1,))

    def test_bad_worker_count(self):
        with pytest.raises(ValueError, match=">= 1"):
            PersistentWorkerPool(0)
