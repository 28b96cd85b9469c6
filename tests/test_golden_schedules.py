"""Golden trajectories of the non-FSYNC time models and of the
self-clocked baselines.

``tests/data/golden_schedules.json`` (written by ``python
tools/make_goldens.py schedules``) pins, for every activation policy,
the fault layer, byzantine robots and async-lcm with and without
staleness, the per-round state and event hashes of small capped runs
under the grid, tolerant and async-greedy strategies, with the
connectivity check on and off.  It also pins the Euclidean, chain and
closed-chain baselines under fsync and every model that accepts them
(Euclidean coordinates hashed rounded to 6 decimals), and the async
greedy under the fair sequential scheduler.  The determinism
tests elsewhere only compare a run with itself; these rows catch a
change that reorders one activation, fault or staleness draw.
"""

from __future__ import annotations

import io
import json
import os

import pytest

from repro.trace.recorder import load_trace

from tools.make_goldens import (
    SCHEDULE_SCENARIOS,
    run_schedule_scenario,
    schedule_digest,
)

GOLDEN_PATH = os.path.join(
    os.path.dirname(__file__), "data", "golden_schedules.json"
)


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN_PATH) as fh:
        return json.load(fh)


def test_every_row_has_a_scenario(golden):
    assert sorted(golden) == sorted(SCHEDULE_SCENARIOS)


@pytest.mark.parametrize("name", sorted(SCHEDULE_SCENARIOS))
def test_schedule_matches_golden(name, golden):
    trace = io.StringIO()
    got = run_schedule_scenario(name, trace=trace)
    gold = golden[name]
    for key in ("rounds", "gathered", "terminal", "activations",
                "byzantine_actions", "state_hashes"):
        assert got[key] == gold[key], f"{name}: {key} diverged"
    digest = schedule_digest(name)
    decoded = [
        digest(row.cells)
        for row in load_trace(trace.getvalue().splitlines())
    ]
    assert decoded == gold["state_hashes"], f"{name}: trace decode"
    assert got["event_hashes"] == gold["event_hashes"], (
        f"{name}: events diverged"
    )
