"""Simulation-as-a-service: registry, router, app, HTTP E2E, resume.

Four layers of coverage, cheapest first:

* unit tests over the durable :class:`RunRegistry` and the
  :class:`Router` / ``validate_params`` plumbing;
* transport-free app tests driving ``ServiceApp.handle`` with inline
  workers (every endpoint, every error shape);
* one real HTTP end-to-end test over ``ServiceServer`` on an
  ephemeral port with the pooled worker backend: submit -> SSE
  delivers every round event in order -> recorded metrics are
  bit-identical to a direct ``simulate()`` with the same parameters;
* restart semantics: completed runs survive a server restart intact,
  and an interrupted checkpointed run *resumes* from its trace and
  finishes with the same trajectory and metrics as an undisturbed run.
"""

from __future__ import annotations

import json
import threading
import time
from http.client import HTTPConnection

import pytest

from repro.api import simulate
from repro.core.algorithm import GatherOnGrid
from repro.core.config import AlgorithmConfig
from repro.engine.protocols import Scenario, SimContext
from repro.engine.scheduler import RoundEngine
from repro.engine.termination import default_round_budget, run_engine
from repro.grid.occupancy import SwarmState
from repro.service.app import (
    Request,
    Response,
    Router,
    ServiceApp,
    validate_params,
)
from repro.service.records import RunRecord, RunRegistry
from repro.service.runner import checkpointable, execute_run
from repro.service.server import ServiceServer
from repro.service.sse import StreamHub, format_event
from repro.trace.recorder import TraceRecorder, read_trace
from repro.trace.replay import controller_checkpoint
from repro.trace.tail import follow_rounds


def submit_request(payload: dict) -> Request:
    return Request(
        method="POST",
        path="/runs",
        body=json.dumps(payload).encode("utf-8"),
    )


def get(app: ServiceApp, path: str, **query: str) -> Response:
    return app.handle(Request(method="GET", path=path, query=query))


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
class TestRunRegistry:
    def test_create_get_roundtrip(self, tmp_path):
        reg = RunRegistry(tmp_path)
        record = reg.create({"family": "ring", "n": 8})
        assert record.run_id == "run-000001"
        assert record.status == "queued"
        loaded = reg.get(record.run_id)
        assert loaded == record
        assert reg.run_ids() == ["run-000001"]

    def test_ids_are_sequential_and_restart_safe(self, tmp_path):
        reg = RunRegistry(tmp_path)
        reg.create({})
        reg.create({})
        # A fresh registry over the same root continues the sequence.
        again = RunRegistry(tmp_path)
        assert again.create({}).run_id == "run-000003"

    def test_get_missing_raises_keyerror(self, tmp_path):
        with pytest.raises(KeyError):
            RunRegistry(tmp_path).get("run-999999")

    def test_update_fields_and_counts(self, tmp_path):
        reg = RunRegistry(tmp_path)
        rid = reg.create({}).run_id
        reg.update(rid, status="running", started_at=1.0)
        reg.update(rid, status="done", metrics={"rounds": 3})
        loaded = reg.get(rid)
        assert loaded.status == "done"
        assert loaded.metrics == {"rounds": 3}
        assert reg.counts() == {
            "queued": 0,
            "running": 0,
            "done": 1,
            "failed": 0,
        }

    def test_update_rejects_unknown_fields_and_statuses(self, tmp_path):
        reg = RunRegistry(tmp_path)
        rid = reg.create({}).run_id
        with pytest.raises(TypeError):
            reg.update(rid, nonsense=1)
        with pytest.raises(ValueError):
            reg.update(rid, status="exploded")

    def test_from_dict_ignores_unknown_keys(self):
        record = RunRecord.from_dict(
            {"run_id": "run-000001", "status": "queued", "future": 1}
        )
        assert record.run_id == "run-000001"


# ----------------------------------------------------------------------
# Router / validation / SSE plumbing
# ----------------------------------------------------------------------
class TestRouter:
    def build(self) -> Router:
        router = Router()
        router.add("GET", "/runs", lambda r: Response.of_json("list"))
        router.add(
            "GET",
            "/runs/<run_id>",
            lambda r: Response.of_json(r.params["run_id"]),
        )
        return router

    def test_literal_and_param_dispatch(self):
        router = self.build()
        assert (
            router.dispatch(Request("GET", "/runs")).json() == "list"
        )
        response = router.dispatch(Request("GET", "/runs/run-000042"))
        assert response.json() == "run-000042"

    def test_unknown_path_is_404(self):
        response = self.build().dispatch(Request("GET", "/nope"))
        assert response.status == 404

    def test_wrong_method_is_405(self):
        response = self.build().dispatch(Request("POST", "/runs/xyz"))
        assert response.status == 405


class TestValidateParams:
    def test_accepts_and_normalizes(self):
        params = validate_params(
            {"family": "blob", "n": 24, "seed": 3, "max_rounds": None}
        )
        assert params == {"family": "blob", "n": 24, "seed": 3}

    @pytest.mark.parametrize(
        "payload",
        [
            "not a dict",
            {"frobnicate": 1},
            {"strategy": "quantum"},
            {"scheduler": "quantum"},
            {"strategy": "grid", "scheduler": "async"},
            {"n": "ten"},
            {"n": 0},
            {"max_rounds": 0},
            {"check_connectivity": "yes"},
            {"config": [1]},
            {"options": [1]},
            {"payload": {"x": 1}},
            {"config": {"no_such_knob": 1}},
            {},  # Scenario needs family+n or payload
        ],
    )
    def test_rejections(self, payload):
        with pytest.raises(ValueError):
            validate_params(payload)

    def test_explicit_payload_scenario(self):
        params = validate_params({"payload": [[0, 0], [1, 0]]})
        assert params["payload"] == [[0, 0], [1, 0]]

    def test_checkpointable_predicate(self):
        assert checkpointable({"family": "ring", "n": 8})
        assert checkpointable({"scheduler": "fsync"})
        assert not checkpointable({"strategy": "chain"})
        assert not checkpointable({"scheduler": "ssync"})
        assert not checkpointable({"options": {"k": 1}})


class TestSse:
    def test_format_event_wire_shape(self):
        wire = format_event("round", {"round": 2, "robots": 5})
        assert wire == (
            b'event: round\ndata: {"round": 2, "robots": 5}\n\n'
        )

    def test_hub_counts(self):
        hub = StreamHub()
        hub.opened()
        hub.opened()
        hub.closed()
        assert hub.snapshot() == {
            "streams_active": 1,
            "streams_total": 2,
        }


# ----------------------------------------------------------------------
# The app, transport-free (inline workers)
# ----------------------------------------------------------------------
@pytest.fixture
def app(tmp_path):
    with ServiceApp(tmp_path, inline_workers=True) as inline_app:
        yield inline_app


class TestServiceApp:
    def test_submit_runs_to_completion(self, app):
        response = app.handle(
            submit_request({"family": "blob", "n": 16, "seed": 5})
        )
        assert response.status == 202
        body = response.json()
        rid = body["id"]
        assert body["links"]["self"] == f"/runs/{rid}"
        record = get(app, f"/runs/{rid}").json()
        assert record["status"] == "done"
        assert record["metrics"]["gathered"] is True
        assert [t["kind"] for t in record["terminal"]] == ["gathered"]
        direct = simulate(Scenario(family="blob", n=16, seed=5))
        assert record["metrics"] == direct.summary()

    def test_submit_validation_is_400(self, app):
        response = app.handle(submit_request({"strategy": "quantum"}))
        assert response.status == 400
        assert "strategy" in response.json()["error"]

    def test_submit_bad_json_is_400(self, app):
        response = app.handle(
            Request("POST", "/runs", body=b"not json")
        )
        assert response.status == 400

    def test_unknown_run_is_404_everywhere(self, app):
        for path in (
            "/runs/run-000042",
            "/runs/run-000042/frame.svg",
            "/runs/run-000042/events",
            "/runs/run-000042/trace",
        ):
            assert get(app, path).status == 404, path

    def test_method_mismatch_is_405(self, app):
        response = app.handle(Request("DELETE", "/runs"))
        assert response.status == 405

    def test_health_and_metrics(self, app):
        app.handle(submit_request({"family": "blob", "n": 9, "seed": 1}))
        health = get(app, "/health").json()
        assert health["status"] == "ok"
        assert health["runs"]["done"] == 1
        metrics = get(app, "/metrics").json()
        assert metrics["http_requests_total"] >= 2
        assert metrics["sse"] == {
            "streams_active": 0,
            "streams_total": 0,
        }

    def test_dashboard_is_html(self, app):
        response = get(app, "/")
        assert response.content_type.startswith("text/html")
        html = response.body.decode("utf-8")
        assert "<html" in html
        assert "/runs" in html  # wired to the API
        assert "EventSource" in html  # live streaming client

    def test_events_replay_finished_run_in_order(self, app):
        rid = app.handle(
            submit_request({"family": "blob", "n": 16, "seed": 5})
        ).json()["id"]
        response = get(app, f"/runs/{rid}/events")
        assert response.content_type == "text/event-stream"
        chunks = b"".join(response.stream).decode("utf-8")
        events = parse_sse(chunks)
        assert events[0][0] == "status"
        assert events[-1][0] == "end"
        rounds = [d["round"] for name, d in events if name == "round"]
        total = get(app, f"/runs/{rid}").json()["metrics"]["rounds"]
        assert rounds == list(range(total))
        assert events[-1][1]["status"] == "done"

    def test_events_start_round_skips_prefix(self, app):
        rid = app.handle(
            submit_request({"family": "ring", "n": 40, "seed": 2})
        ).json()["id"]
        response = get(
            app, f"/runs/{rid}/events", start_round="3"
        )
        events = parse_sse(b"".join(response.stream).decode("utf-8"))
        rounds = [d["round"] for name, d in events if name == "round"]
        assert rounds[0] == 3

    def test_frames(self, app):
        rid = app.handle(
            submit_request({"family": "ring", "n": 40, "seed": 2})
        ).json()["id"]
        initial = get(app, f"/runs/{rid}/frame.svg", round="initial")
        assert initial.status == 200
        assert initial.content_type == "image/svg+xml"
        assert b"round 0 (initial)" in initial.body
        latest = get(app, f"/runs/{rid}/frame.svg")
        assert latest.status == 200
        third = get(app, f"/runs/{rid}/frame.svg", round="2")
        assert b"round 3" in third.body
        missing = get(app, f"/runs/{rid}/frame.svg", round="99999")
        assert missing.status == 404
        bad = get(app, f"/runs/{rid}/frame.svg", round="soonish")
        assert bad.status == 400

    def test_trace_endpoint_serves_raw_jsonl(self, app):
        rid = app.handle(
            submit_request({"family": "blob", "n": 16, "seed": 5})
        ).json()["id"]
        response = get(app, f"/runs/{rid}/trace")
        assert response.content_type == "application/x-ndjson"
        lines = response.body.decode("utf-8").splitlines()
        header = json.loads(lines[0])
        assert header["type"] == "header"
        assert header["run_id"] == rid
        total = get(app, f"/runs/{rid}").json()["metrics"]["rounds"]
        assert len(lines) == 1 + total

    def test_failed_run_is_recorded_not_raised(self, app):
        # connectivity_lost raises inside the engine for a
        # disconnected swarm; the record absorbs it.
        response = app.handle(
            submit_request({"payload": [[0, 0], [10, 10]]})
        )
        assert response.status == 202
        record = get(app, f"/runs/{response.json()['id']}").json()
        assert record["status"] == "failed"
        assert "connected" in record["error"]

    def test_non_grid_strategy_runs(self, app):
        rid = app.handle(
            submit_request(
                {"family": "hairpin", "n": 6, "strategy": "chain"}
            )
        ).json()["id"]
        record = get(app, f"/runs/{rid}").json()
        assert record["status"] == "done"
        assert record["metrics"]["strategy"] == "chain"


def parse_sse(text: str):
    """[(event_name, data_dict), ...] from a raw SSE byte stream."""
    events = []
    for block in text.split("\n\n"):
        if not block.strip():
            continue
        name = data = None
        for line in block.splitlines():
            if line.startswith("event: "):
                name = line[len("event: "):]
            elif line.startswith("data: "):
                data = json.loads(line[len("data: "):])
        events.append((name, data))
    return events


# ----------------------------------------------------------------------
# Real HTTP end-to-end (ephemeral port, pooled workers)
# ----------------------------------------------------------------------
def http_json(host, port, method, path, payload=None, timeout=60.0):
    conn = HTTPConnection(host, port, timeout=timeout)
    try:
        body = None
        headers = {}
        if payload is not None:
            body = json.dumps(payload).encode("utf-8")
            headers["Content-Type"] = "application/json"
        conn.request(method, path, body=body, headers=headers)
        response = conn.getresponse()
        return response.status, json.loads(response.read())
    finally:
        conn.close()


class TestHttpEndToEnd:
    def test_submit_stream_and_bit_identical_metrics(self, tmp_path):
        app = ServiceApp(tmp_path, workers=2, poll_interval=0.02)
        server = ServiceServer(app, port=0)
        server.start()
        try:
            host, port = server.host, server.port
            status, body = http_json(
                host,
                port,
                "POST",
                "/runs",
                {"family": "ring", "n": 40, "seed": 2},
            )
            assert status == 202
            rid = body["id"]

            # Attach the SSE stream while the run executes; the
            # connection closes when the stream ends, so one blocking
            # read collects the whole narration.
            conn = HTTPConnection(host, port, timeout=120.0)
            try:
                conn.request("GET", f"/runs/{rid}/events")
                raw = conn.getresponse().read().decode("utf-8")
            finally:
                conn.close()
            events = parse_sse(raw)
            assert events[0][0] == "status"
            assert events[-1][0] == "end"
            assert events[-1][1]["status"] == "done"

            status, record = http_json(
                host, port, "GET", f"/runs/{rid}"
            )
            assert status == 200
            assert record["status"] == "done"
            # Every round event, in order, no gaps.
            rounds = [
                d["round"] for name, d in events if name == "round"
            ]
            assert rounds == list(range(record["metrics"]["rounds"]))
            # The service recorded exactly what a direct call yields.
            direct = simulate(Scenario(family="ring", n=40, seed=2))
            assert record["metrics"] == direct.summary()
            assert events[-1][1]["metrics"] == direct.summary()

            # A frame and the ops endpoints answer over HTTP too.
            conn = HTTPConnection(host, port, timeout=60.0)
            try:
                conn.request("GET", f"/runs/{rid}/frame.svg?round=3")
                response = conn.getresponse()
                frame = response.read()
                assert response.status == 200
                assert frame.startswith(b"<svg")
            finally:
                conn.close()
            status, health = http_json(host, port, "GET", "/health")
            assert status == 200
            assert health["runs"]["done"] == 1
            assert health["workers"] == 2
            status, metrics = http_json(host, port, "GET", "/metrics")
            assert metrics["sse"]["streams_total"] == 1
            assert metrics["sse"]["streams_active"] == 0
        finally:
            server.shutdown()


class TestPooledBacklog:
    def test_more_runs_than_workers_all_complete(self, tmp_path):
        # One worker, three runs: 2 and 3 sit in the pool queue until
        # the completion poller's zero-timeout polls dispatch them.
        pooled = ServiceApp(tmp_path, workers=1, poll_interval=0.01)
        pooled.start()
        try:
            rids = [
                pooled.handle(
                    submit_request(
                        {"family": "blob", "n": 12, "seed": s}
                    )
                ).json()["id"]
                for s in (1, 2, 3)
            ]
            deadline = time.time() + 60
            while True:
                records = [
                    get(pooled, f"/runs/{rid}").json()
                    for rid in rids
                ]
                if all(r["status"] == "done" for r in records):
                    break
                assert time.time() < deadline, [
                    (r["run_id"], r["status"]) for r in records
                ]
                time.sleep(0.05)
        finally:
            pooled.close()


# ----------------------------------------------------------------------
# Restart survival + checkpoint resume
# ----------------------------------------------------------------------
def interrupt_grid_run(registry, rid, params, rounds, every):
    """Execute ``rounds`` rounds of a checkpointed grid run, then
    stop — as if the worker was SIGKILLed mid-run (record still says
    ``running``, trace ends at an arbitrary flushed row)."""
    from repro.api import STRATEGIES
    from repro.service.runner import _span

    registry.update(rid, status="running", started_at=time.time())
    scenario = Scenario(
        family=params["family"], n=params["n"], seed=params["seed"]
    )
    cells = STRATEGIES["grid"].resolve(
        scenario, SimContext(seed=params["seed"])
    )
    controller = GatherOnGrid(AlgorithmConfig())
    state = SwarmState(cells)
    unique = sorted(set(tuple(c) for c in cells))
    meta = {
        "run_id": rid,
        "strategy": "grid",
        "scheduler": "fsync",
        "n": len(unique),
        "initial_cells": [list(c) for c in unique],
        "family": params["family"],
        "seed": params["seed"],
        "budget": default_round_budget(len(unique)),
        "initial_diameter": _span(unique),
    }
    with registry.trace_path(rid).open("w") as fh:
        recorder = TraceRecorder(
            fh,
            meta,
            checkpoint_fn=lambda: controller_checkpoint(controller),
            every=every,
        )
        engine = RoundEngine(state, controller)
        result = run_engine(engine, max_rounds=rounds, on_round=recorder)
        assert result.rounds == rounds
    return meta


class TestRestartAndResume:
    def test_completed_runs_survive_restart(self, tmp_path):
        with ServiceApp(tmp_path, inline_workers=True) as app:
            rid = app.handle(
                submit_request({"family": "blob", "n": 16, "seed": 5})
            ).json()["id"]
            before = get(app, f"/runs/{rid}").json()
        # "Restart": a brand-new app over the same data directory.
        with ServiceApp(tmp_path, inline_workers=True) as app:
            listed = get(app, "/runs").json()["runs"]
            assert [r["run_id"] for r in listed] == [rid]
            assert get(app, f"/runs/{rid}").json() == before
            health = get(app, "/health").json()
            assert health["runs"] == {
                "queued": 0,
                "running": 0,
                "done": 1,
                "failed": 0,
            }

    def test_interrupted_run_resumes_from_checkpoint(self, tmp_path):
        params = {"family": "ring", "n": 48, "seed": 7}
        registry = RunRegistry(tmp_path)
        rid = registry.create(validate_params(params)).run_id
        # Worker dies after 7 rounds (checkpoints at 0, 3, 6).
        interrupt_grid_run(registry, rid, params, rounds=7, every=3)
        assert registry.get(rid).status == "running"

        app = ServiceApp(tmp_path, inline_workers=True)
        try:
            requeued = app.start()  # inline: resumes synchronously
            assert requeued == [rid]
            record = get(app, f"/runs/{rid}").json()
        finally:
            app.close()
        assert record["status"] == "done"
        assert record["resumed_from_round"] == 6

        # The resumed trajectory equals the undisturbed one: same
        # terminal metrics (modulo event counts, which only cover the
        # resumed tail — documented in docs/service.md) ...
        direct = simulate(
            Scenario(**params), max_rounds=None
        ).summary()
        for key in (
            "strategy",
            "scheduler",
            "gathered",
            "rounds",
            "robots_initial",
            "robots_final",
            "merges",
            "rounds_per_robot",
            "extras",
        ):
            assert record["metrics"][key] == direct[key], key
        # ... and the trace is one contiguous round sequence.
        with registry.trace_path(rid).open() as fh:
            meta, rows = read_trace(fh)
        assert meta["run_id"] == rid
        indexes = [row.round_index for row in rows]
        assert indexes == list(range(record["metrics"]["rounds"]))

    @pytest.mark.parametrize("torn", [False, True])
    def test_resume_past_a_checkpoint_leaves_one_contiguous_trace(
        self, tmp_path, torn
    ):
        """A worker killed three rows after a checkpoint, optionally
        mid-row: the resumed run rewrites nothing already on disk, ends
        with the undisturbed trace, and a follower attached across the
        crash sees every round once."""
        params = {"family": "ring", "n": 48, "seed": 7}
        registry = RunRegistry(tmp_path)
        rid = registry.create(validate_params(params)).run_id
        execute_run(str(tmp_path), rid, checkpoint_every=4)
        path = registry.trace_path(rid)
        undisturbed = path.read_text()
        lines = undisturbed.splitlines(keepends=True)
        cut = next(
            i
            for i, line in enumerate(lines)
            if '"checkpoint"' in line and json.loads(line)["round"] == 8
        )
        text = "".join(lines[: cut + 4])
        path.write_text(text[:-25] if torn else text)
        on_disk = cut + 2 if torn else cut + 3  # complete round rows

        done = threading.Event()
        follower = follow_rounds(
            str(path), poll_interval=0.001, stop=done.is_set
        )
        seen = [next(follower) for _ in range(on_disk)]
        execute_run(str(tmp_path), rid, checkpoint_every=4)
        done.set()
        seen += list(follower)

        record = registry.get(rid)
        assert record.status == "done"
        assert record.resumed_from_round == 8
        direct = simulate(Scenario(**params), max_rounds=None).summary()
        assert record.metrics["rounds"] == direct["rounds"]
        assert record.metrics["robots_final"] == direct["robots_final"]
        assert path.read_text() == undisturbed
        assert [row.round_index for row in seen] == list(
            range(direct["rounds"])
        )

    def test_interrupted_unstarted_run_is_requeued(self, tmp_path):
        registry = RunRegistry(tmp_path)
        rid = registry.create(
            validate_params({"family": "blob", "n": 9, "seed": 1})
        ).run_id
        app = ServiceApp(tmp_path, inline_workers=True)
        try:
            assert app.start() == [rid]
            assert get(app, f"/runs/{rid}").json()["status"] == "done"
        finally:
            app.close()

    def test_execute_run_records_failure_and_reraises(self, tmp_path):
        registry = RunRegistry(tmp_path)
        rid = registry.create(
            validate_params({"payload": [[0, 0], [9, 9]]})
        ).run_id
        with pytest.raises(Exception):
            execute_run(str(tmp_path), rid)
        record = registry.get(rid)
        assert record.status == "failed"
        assert record.error
