"""Sweep orchestrator: pooled sweeps, durable stores, checkpoint/resume.

The recovery tests kill real workers mid-sweep and interrupt store runs
mid-simulation; results must come out identical to undisturbed runs.
"""

from __future__ import annotations

import dataclasses
import io
import json
import os
import signal

import pytest

from repro.analysis.experiments import (
    ScalingPoint,
    SweepJob,
    run_jobs,
    run_scaling,
)
from repro.analysis.orchestrator import (
    SweepJobStore,
    SweepOrchestrator,
    _run_store_job,
    default_orchestrator,
    run_store,
)
from repro.core.config import AlgorithmConfig
from repro.engine.executors import WorkerTaskError

JOBS = [SweepJob(family="ring", n=n) for n in (12, 16, 24)]


def _double(x):
    return 2 * x


class TestOrchestrator:
    def test_gather_mode_matches_serial_in_submission_order(self):
        serial = run_jobs(JOBS)
        with SweepOrchestrator(2) as orch:
            ids = orch.submit_all(JOBS)
            pairs = orch.collect(mode="gather")
        assert [jid for jid, _ in pairs] == ids
        assert [p for _, p in pairs] == serial

    def test_yield_mode_streams_every_job(self):
        serial = run_jobs(JOBS)
        with SweepOrchestrator(2) as orch:
            ids = orch.submit_all(JOBS)
            got = dict(orch.collect(mode="yield"))
        assert [got[jid] for jid in ids] == serial

    def test_bad_mode_rejected(self):
        with SweepOrchestrator(1) as orch:
            with pytest.raises(ValueError, match="gather"):
                orch.collect(mode="block")

    def test_poll_reports_done(self):
        with SweepOrchestrator(2) as orch:
            ids = orch.submit_all(JOBS[:2])
            orch.collect(mode="gather")
            status = orch.poll()
        assert all(status[jid] == "done" for jid in ids)

    def test_map_preserves_order_and_chunks(self):
        items = list(range(37))
        with SweepOrchestrator(2) as orch:
            assert orch.map(_double, items) == [2 * x for x in items]
            assert orch.map(_double, items, chunksize=5) == [
                2 * x for x in items
            ]
            assert orch.map(_double, []) == []

    def test_repeated_batches_reuse_the_pool(self):
        """A second submit/collect cycle on the same orchestrator must
        run on the same workers and not wait on already-collected
        tasks (regression: gather once deadlocked on batch two)."""
        serial = run_jobs(JOBS)
        with SweepOrchestrator(2) as orch:
            first = orch.submit_all(JOBS)
            orch.collect(mode="gather")
            pids = orch.worker_pids()
            second = orch.submit_all(JOBS)
            pairs = dict(orch.collect(mode="gather"))
            assert orch.worker_pids() == pids
        assert [pairs[j] for j in first] == serial
        assert [pairs[j] for j in second] == serial

    def test_worker_killed_mid_sweep_results_identical(self):
        """SIGKILL a sweep worker after submission: jobs requeue on the
        respawned worker and every result matches the serial run."""
        serial = run_jobs(JOBS)
        with SweepOrchestrator(2) as orch:
            ids = orch.submit_all(JOBS * 2)
            os.kill(orch.worker_pids()[0], signal.SIGKILL)
            got = dict(orch.collect(mode="yield"))
        assert [got[jid] for jid in ids] == serial * 2
        kinds = [kind for kind, _ in orch.worker_events]
        assert "worker_failed" in kinds
        assert "worker_respawned" in kinds

    def test_run_scaling_through_pool_matches_serial(self):
        sizes = [12, 16, 24]
        serial = run_scaling("ring", sizes)
        assert run_scaling("ring", sizes, workers=2) == serial

    def test_default_orchestrator_is_reused_and_grows(self):
        first = default_orchestrator(1)
        second = default_orchestrator(2)
        assert second is first
        first._pool()
        assert first._pool_obj.worker_count >= 2


class TestSweepJobStore:
    def test_create_open_roundtrip(self, tmp_path):
        store = SweepJobStore.create(tmp_path / "sw", JOBS)
        reopened = SweepJobStore.open(tmp_path / "sw")
        jobs = reopened.jobs()
        assert list(jobs) == ["job-000001", "job-000002", "job-000003"]
        assert list(jobs.values()) == JOBS
        assert set(reopened.status().values()) == {"pending"}

    def test_create_refuses_overwrite(self, tmp_path):
        SweepJobStore.create(tmp_path / "sw", JOBS)
        with pytest.raises(FileExistsError):
            SweepJobStore.create(tmp_path / "sw", JOBS)

    def test_open_missing_store(self, tmp_path):
        with pytest.raises(FileNotFoundError, match="spec.json"):
            SweepJobStore.open(tmp_path / "nope")

    def test_create_needs_jobs(self, tmp_path):
        with pytest.raises(ValueError, match="at least one"):
            SweepJobStore.create(tmp_path / "sw", [])

    def test_job_serialization_preserves_cfg_and_options(self, tmp_path):
        job = SweepJob(
            family="line",
            n=30,
            seed=7,
            cfg=AlgorithmConfig(run_start_interval=30, incremental=False),
            check_connectivity=False,
            max_rounds=500,
            strategy="grid",
            scheduler="ssync",
            options=(("activation_p", 0.5), ("k_fairness", 4)),
        )
        store = SweepJobStore.create(tmp_path / "sw", [job])
        assert store.jobs()["job-000001"] == job

    def test_store_with_retired_cfg_keys_opens_and_runs(self, tmp_path):
        """Specs written while sharded planning existed carry its three
        config fields in every cfg; such a store must still open and
        run to the same results."""
        cfg = AlgorithmConfig(incremental=False)
        jobs = [SweepJob(family="ring", n=n, cfg=cfg) for n in (12, 16)]
        store = SweepJobStore.create(tmp_path / "sw", jobs)
        spec = json.loads(store.spec_path.read_text())
        for data in spec["jobs"]:
            data["cfg"].update(
                {
                    "shard_" + "planning": True,
                    "shard_" + "workers": 2,
                    "shard_" + "backend": "process",
                }
            )
        store.spec_path.write_text(json.dumps(spec))
        reopened = SweepJobStore.open(tmp_path / "sw")
        assert list(reopened.jobs().values()) == jobs
        results = run_store(reopened, workers=2)
        assert [results[j] for j in sorted(results)] == run_jobs(jobs)

    def test_cfg_from_dict_rejects_other_unknown_keys(self):
        data = dataclasses.asdict(AlgorithmConfig())
        assert AlgorithmConfig.from_dict(data) == AlgorithmConfig()
        with pytest.raises(TypeError, match="bogus"):
            AlgorithmConfig.from_dict({**data, "bogus": 1})

    def test_failure_recorded_and_raised(self, tmp_path):
        store = SweepJobStore.create(tmp_path / "sw", JOBS[:1])
        store.write_failure("job-000001", "it broke")
        assert store.status()["job-000001"] == "failed"
        with pytest.raises(WorkerTaskError, match="it broke"):
            store.result("job-000001")

    def test_run_store_matches_serial_and_skips_done(self, tmp_path):
        serial = run_jobs(JOBS)
        store = SweepJobStore.create(tmp_path / "sw", JOBS)
        results = run_store(store, workers=2, checkpoint_every=25)
        assert [results[j] for j in sorted(results)] == serial
        assert set(store.status().values()) == {"done"}
        # a second run loads results instead of re-simulating
        seen = []
        again = run_store(
            store, workers=2, on_result=lambda j, p: seen.append(j)
        )
        assert again == results
        assert sorted(seen) == sorted(results)


class TestCheckpointResume:
    def test_interrupted_store_job_resumes_from_checkpoint(
        self, tmp_path
    ):
        """Budget-starve a store job so it stops mid-simulation with
        checkpoints on disk, then finish it through run_store: the
        result must equal an undisturbed run."""
        # family("ring", 72) runs ~115 rounds — long enough that a
        # checkpoint_every=10 trace has real mid-run checkpoints.
        job = SweepJob(family="ring", n=72, check_connectivity=False)
        serial = run_jobs([job])[0]
        store = SweepJobStore.create(tmp_path / "sw", [job])

        # Simulate an interruption: run the checkpointing path but lie
        # about the budget so it stops early, then delete the result it
        # wrote — exactly the on-disk state a SIGKILLed worker leaves
        # (trace with checkpoints, no result).
        trace_path = store.trace_path("job-000001")
        partial = _run_store_job(str(store.root), "job-000001", 10)
        assert partial == serial
        rows = [
            json.loads(line)
            for line in trace_path.read_text().splitlines()
        ]
        cut = next(
            i
            for i, row in enumerate(rows)
            if row.get("checkpoint") and row["round"] >= 20
        )
        trace_path.write_text(
            "\n".join(json.dumps(r) for r in rows[: cut + 1]) + "\n"
        )
        store.result_path("job-000001").unlink()
        assert store.status()["job-000001"] == "checkpointed"

        results = run_store(store, workers=1)
        assert results["job-000001"] == serial
        assert store.status()["job-000001"] == "done"

    @pytest.mark.parametrize("torn", [False, True])
    def test_resume_past_a_checkpoint_leaves_one_contiguous_trace(
        self, tmp_path, torn
    ):
        """A crash three rows after a checkpoint, optionally tearing
        the last row: the resumed job must write each round once and
        leave the trace an undisturbed run writes, byte for byte."""
        job = SweepJob(family="ring", n=72, check_connectivity=False)
        serial = run_jobs([job])[0]
        store = SweepJobStore.create(tmp_path / "sw", [job])
        trace_path = store.trace_path("job-000001")
        _run_store_job(str(store.root), "job-000001", 10)
        undisturbed = trace_path.read_text()
        lines = undisturbed.splitlines(keepends=True)
        cut = next(
            i
            for i, line in enumerate(lines)
            if '"checkpoint"' in line and json.loads(line)["round"] >= 20
        )
        text = "".join(lines[: cut + 4])
        trace_path.write_text(text[:-25] if torn else text)
        store.result_path("job-000001").unlink()

        results = run_store(store, workers=1, checkpoint_every=10)
        assert results["job-000001"] == serial
        resumed = trace_path.read_text()
        rounds = [
            json.loads(line)["round"] for line in resumed.splitlines()[1:]
        ]
        assert rounds == list(range(serial.rounds))
        assert resumed == undisturbed

    def test_full_cell_trace_still_reads_and_resumes(self, tmp_path):
        """A checkpointed trace written before delta rows existed (every
        row holds every cell) decodes to the same rows, and resuming it
        ends with the rows of an undisturbed run."""
        from repro.trace.recorder import read_trace

        job = SweepJob(family="ring", n=72, check_connectivity=False)
        serial = run_jobs([job])[0]
        store = SweepJobStore.create(tmp_path / "sw", [job])
        trace_path = store.trace_path("job-000001")
        _run_store_job(str(store.root), "job-000001", 10)
        lines = trace_path.read_text().splitlines()
        meta, rows = read_trace(lines)
        full = [lines[0]]
        for row in rows:
            obj = {"type": "round", "round": row.round_index}
            obj["cells"] = [list(cell) for cell in row.cells]
            if row.checkpoint is not None:
                obj["checkpoint"] = row.checkpoint
            full.append(json.dumps(obj))
        assert sum('"cells"' in line for line in lines) < len(rows)
        assert read_trace(full) == (meta, rows)

        cut = next(
            i
            for i, row in enumerate(rows)
            if row.checkpoint is not None and row.round_index >= 20
        )
        trace_path.write_text("\n".join(full[: cut + 4]) + "\n")
        store.result_path("job-000001").unlink()

        results = run_store(store, workers=1, checkpoint_every=10)
        assert results["job-000001"] == serial
        resumed = trace_path.read_text().splitlines()
        assert read_trace(resumed) == (meta, rows)
        assert resumed[: cut + 4] == full[: cut + 4]
        assert '"vacated"' in resumed[cut + 4]

    def test_resume_engine_reproduces_tail(self):
        from repro.core.algorithm import GatherOnGrid
        from repro.engine.scheduler import RoundEngine
        from repro.engine.termination import run_engine
        from repro.grid.occupancy import SwarmState
        from repro.swarms.generators import ring
        from repro.trace.recorder import TraceRecorder, read_trace
        from repro.trace.replay import (
            controller_checkpoint,
            last_checkpoint,
            resume_engine,
        )

        buf = io.StringIO()
        ctrl = GatherOnGrid()
        recorder = TraceRecorder(
            buf,
            {"family": "ring"},
            checkpoint_fn=lambda: controller_checkpoint(ctrl),
            every=20,
        )
        full = []

        def hook(i, s):
            recorder(i, s)
            full.append((i, s.frozen()))

        engine = RoundEngine(SwarmState(ring(24)), ctrl)
        result = run_engine(engine, on_round=hook)
        assert result.gathered

        meta, rows = read_trace(buf.getvalue().splitlines())
        assert meta == {"family": "ring"}
        row = last_checkpoint(rows[: len(rows) // 2])
        assert row is not None
        resumed_states = []
        res2 = run_engine(
            resume_engine(row),
            max_rounds=result.rounds,
            on_round=lambda i, s: resumed_states.append((i, s.frozen())),
        )
        assert res2.gathered and res2.rounds == result.rounds
        tail = [fs for fs in full if fs[0] > row.round_index]
        assert resumed_states == tail

    def test_resume_requires_checkpoint_row(self):
        from repro.trace.recorder import TraceRow
        from repro.trace.replay import resume_engine

        row = TraceRow(round_index=3, cells=((0, 0), (0, 1)))
        with pytest.raises(ValueError, match="no\\s+checkpoint"):
            resume_engine(row)

    def test_plain_traces_still_load(self):
        from repro.trace.recorder import TraceRecorder, load_trace
        from repro.grid.occupancy import SwarmState

        buf = io.StringIO()
        rec = TraceRecorder(buf, meta={"family": "x"})
        rec(0, SwarmState([(0, 0), (1, 0)]))
        rows = load_trace(buf.getvalue().splitlines())
        assert len(rows) == 1
        assert rows[0].checkpoint is None


class TestSweepCli:
    def test_submit_run_status_collect(self, tmp_path, capsys):
        from repro.cli import main

        root = str(tmp_path / "sw")
        assert (
            main(
                [
                    "sweep",
                    "submit",
                    root,
                    "--family",
                    "ring",
                    "--sizes",
                    "12",
                    "16",
                ]
            )
            == 0
        )
        assert main(["sweep", "status", root]) == 1  # not done yet
        capsys.readouterr()
        assert (
            main(["sweep", "run", root, "-j", "2"]) == 0
        )
        out = capsys.readouterr().out
        assert "2/2 jobs done" in out
        assert main(["sweep", "status", root, "--json"]) == 0
        status = json.loads(capsys.readouterr().out)
        assert status["counts"] == {"done": 2}
        assert main(["sweep", "collect", root, "--json"]) == 0
        collected = json.loads(capsys.readouterr().out)
        assert collected["complete"]
        assert len(collected["results"]) == 2

    def test_submit_refuses_existing_dir(self, tmp_path, capsys):
        from repro.cli import main

        root = str(tmp_path / "sw")
        assert (
            main(["sweep", "submit", root, "--sizes", "12"]) == 0
        )
        capsys.readouterr()
        assert (
            main(["sweep", "submit", root, "--sizes", "12"]) == 2
        )
        assert "already exists" in capsys.readouterr().err

    def test_status_missing_store_clean_error(self, tmp_path, capsys):
        from repro.cli import main

        assert (
            main(["sweep", "status", str(tmp_path / "nope")]) == 2
        )
        assert "spec.json" in capsys.readouterr().err


def test_scaling_point_roundtrips_through_store_json(tmp_path):
    point = ScalingPoint(
        family="ring",
        n=20,
        rounds=30,
        gathered=True,
        merges=16,
        diameter=7,
    )
    store = SweepJobStore.create(tmp_path / "sw", JOBS[:1])
    store.write_result("job-000001", point)
    assert store.result("job-000001") == point
