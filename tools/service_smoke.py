#!/usr/bin/env python3
"""End-to-end smoke of the simulation service over real HTTP.

Boots :class:`repro.service.server.ServiceServer` on an ephemeral port
with the pooled worker backend, then exercises the full client
lifecycle the dashboard depends on:

1. ``POST /runs`` submits a small blob scenario (202 + links);
2. ``GET /runs/<id>`` is polled until the run reaches ``done``;
3. the final metrics must be bit-identical to a direct
   ``repro.api.simulate()`` with the same parameters;
4. ``GET /runs/<id>/frame.svg`` returns a rendered SVG frame;
5. ``GET /runs/<id>/events`` replays every round event in order;
6. ``GET /runs/<id>/trace`` decodes (``read_trace``) to one row per
   round, the last equal to the direct run's final cells, and each
   row's robot count equals its SSE ``round`` event's;
7. ``GET /health`` and ``GET /metrics`` answer with sane counters.

Exit status 0 on success, 1 with a diagnostic on the first failure.
CI's ``service-smoke`` job runs this on every PR.

Usage::

    PYTHONPATH=src python tools/service_smoke.py [--rounds-budget 600]
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
import time
from http.client import HTTPConnection

from repro.api import simulate
from repro.engine.protocols import Scenario
from repro.service.app import ServiceApp
from repro.service.server import ServiceServer
from repro.trace.recorder import read_trace

SCENARIO = {"family": "blob", "n": 24, "seed": 3}


class SmokeFailure(RuntimeError):
    pass


def check(condition: bool, message: str) -> None:
    if not condition:
        raise SmokeFailure(message)


def request_json(host, port, method, path, payload=None, timeout=60.0):
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


def request_raw(host, port, path, timeout=120.0):
    conn = HTTPConnection(host, port, timeout=timeout)
    try:
        conn.request("GET", path)
        response = conn.getresponse()
        return response.status, response.read()
    finally:
        conn.close()


def poll_until_done(host, port, run_id, deadline_s=120.0):
    start = time.time()
    while True:
        status, record = request_json(
            host, port, "GET", f"/runs/{run_id}"
        )
        check(status == 200, f"GET /runs/{run_id} -> {status}")
        if record["status"] in ("done", "failed"):
            return record
        check(
            time.time() - start < deadline_s,
            f"run {run_id} still {record['status']} "
            f"after {deadline_s}s",
        )
        time.sleep(0.1)


def sse_rounds(body: bytes):
    """``round`` event payloads, in stream order, from a raw SSE byte
    stream."""
    rounds = []
    for block in body.decode("utf-8").split("\n\n"):
        name = data = None
        for line in block.splitlines():
            if line.startswith("event: "):
                name = line[len("event: "):]
            elif line.startswith("data: "):
                data = line[len("data: "):]
        if name == "round" and data is not None:
            rounds.append(json.loads(data))
    return rounds


def run_smoke(data_dir: str) -> None:
    app = ServiceApp(data_dir, workers=2, poll_interval=0.02)
    server = ServiceServer(app, port=0)
    server.start()
    try:
        host, port = server.host, server.port
        print(f"service up on {server.url}")

        status, body = request_json(
            host, port, "POST", "/runs", SCENARIO
        )
        check(status == 202, f"POST /runs -> {status}: {body}")
        run_id = body["id"]
        check(
            body["links"]["self"] == f"/runs/{run_id}",
            f"submit links malformed: {body}",
        )
        print(f"submitted {run_id} {SCENARIO}")

        record = poll_until_done(host, port, run_id)
        check(
            record["status"] == "done",
            f"run ended {record['status']}: {record.get('error')}",
        )
        metrics = record["metrics"]
        direct_result = simulate(Scenario(**SCENARIO))
        direct = direct_result.summary()
        check(
            metrics == direct,
            f"service metrics diverge from direct simulate():\n"
            f"  service: {metrics}\n  direct:  {direct}",
        )
        print(
            f"run done: rounds={metrics['rounds']} "
            f"gathered={metrics['gathered']} (bit-identical to "
            f"direct simulate)"
        )

        status, frame = request_raw(
            host, port, f"/runs/{run_id}/frame.svg?round=latest"
        )
        check(status == 200, f"frame.svg -> {status}")
        check(
            frame.startswith(b"<svg"),
            f"frame is not SVG: {frame[:40]!r}",
        )
        print(f"frame.svg ok ({len(frame)} bytes)")

        status, stream = request_raw(
            host, port, f"/runs/{run_id}/events"
        )
        check(status == 200, f"events -> {status}")
        events = sse_rounds(stream)
        rounds = [event["round"] for event in events]
        check(
            rounds == list(range(metrics["rounds"])),
            f"SSE rounds {rounds} != 0..{metrics['rounds'] - 1}",
        )
        print(f"SSE replayed {len(rounds)} rounds in order")

        status, raw = request_raw(host, port, f"/runs/{run_id}/trace")
        check(status == 200, f"trace -> {status}")
        _, rows = read_trace(raw.decode("utf-8").splitlines())
        check(
            [row.round_index for row in rows] == rounds,
            f"trace has rounds {[row.round_index for row in rows]}, "
            f"expected 0..{metrics['rounds'] - 1}",
        )
        final = tuple(sorted(direct_result.final_state.cells))
        check(
            rows[-1].cells == final,
            f"last trace row {rows[-1].cells} != final cells {final}",
        )
        robots = [len(row.cells) for row in rows]
        sse_robots = [event["robots"] for event in events]
        check(
            robots == sse_robots,
            f"trace robot counts {robots} != SSE {sse_robots}",
        )
        print(f"trace decoded: {len(rows)} rows, last = final cells")

        status, health = request_json(host, port, "GET", "/health")
        check(status == 200, f"/health -> {status}")
        check(
            health["status"] == "ok" and health["runs"]["done"] == 1,
            f"unhealthy: {health}",
        )
        status, counters = request_json(
            host, port, "GET", "/metrics"
        )
        check(status == 200, f"/metrics -> {status}")
        check(
            counters["http_requests_total"] > 0
            and counters["sse"]["streams_total"] >= 1,
            f"metrics counters off: {counters}",
        )
        print("health + metrics ok")
    finally:
        server.shutdown()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--data-dir",
        default=None,
        help="service data directory (default: a fresh temp dir)",
    )
    args = parser.parse_args(argv)
    try:
        if args.data_dir is not None:
            run_smoke(args.data_dir)
        else:
            with tempfile.TemporaryDirectory() as tmp:
                run_smoke(tmp)
    except SmokeFailure as exc:
        print(f"SMOKE FAILURE: {exc}", file=sys.stderr)
        return 1
    print("service smoke OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
