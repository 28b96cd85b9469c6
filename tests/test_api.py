"""The unified simulation facade: registry, ``simulate()``, ``gather()``.

Three layers:

1. **Smoke matrix** — every registered strategy x every scheduler it
   declares, on a small instance of its worst-case family, asserting
   :class:`RunResult` field parity (metrics/events populated, terminal
   event present, JSON-able summary) across all workloads.
2. **Quickstart equivalence** — ``gather()`` is the quickstart
   spelling of ``simulate()``; its result must equal a direct facade
   call field-for-field.
3. **Registry contract** — unknown keys and strategy/scheduler
   mismatches fail loudly; the public surface exports the facade.
"""

from __future__ import annotations

import io
import json

import pytest

import repro
from repro.api import SCHEDULERS, STRATEGIES, simulate
from repro.baselines.chain import hairpin_chain
from repro.core.algorithm import gather
from repro.engine.protocols import RunResult, Scenario
from repro.swarms.generators import ring
from repro.trace.recorder import load_trace

#: Every (strategy, scheduler) pair the registry declares runnable.
MATRIX = sorted(
    (key, scheduler)
    for key, strat in STRATEGIES.items()
    for scheduler in strat.schedulers
)

SMOKE_N = 16


class TestSmokeMatrix:
    @pytest.mark.parametrize("key,scheduler", MATRIX)
    def test_every_strategy_scheduler_pair(self, key, scheduler):
        strat = STRATEGIES[key]
        result = simulate(
            strat.compare_scenario(SMOKE_N),
            strategy=key,
            scheduler=scheduler,
            check_connectivity=False,
            seed=1,
        )
        # uniform result surface
        assert isinstance(result, RunResult)
        assert result.strategy == key and result.scheduler == scheduler
        assert result.gathered, f"{key}/{scheduler} must gather at n=16"
        assert result.rounds >= 1
        assert 1 <= result.robots_final <= result.robots_initial
        assert result.merges_total == (
            result.robots_initial - result.robots_final
        )
        # metrics/events parity: one metrics row per round, a terminal
        # event, extras always carry the initial diameter
        assert len(result.metrics) == result.rounds
        assert len(result.events.of_kind("gathered")) == 1
        assert result.extras["initial_diameter"] >= 0
        # activations are counted by the async and ssync-family
        # schedulers (async-lcm included)
        assert (result.activations is not None) == (
            scheduler in ("async", "ssync", "ssync-faulty", "async-lcm")
        )
        # the FSYNC loops select no activation subsets
        if scheduler == "fsync":
            assert not result.events.of_kind("activation")
        json.dumps(result.summary())  # machine-readable by contract

    @pytest.mark.parametrize("key", sorted(STRATEGIES))
    def test_registry_metadata(self, key):
        strat = STRATEGIES[key]
        assert strat.key == key
        assert strat.default_scheduler in strat.schedulers
        assert all(s in SCHEDULERS for s in strat.schedulers)
        assert strat.description and strat.compare_label

    def test_trace_integration(self):
        buf = io.StringIO()
        result = simulate(
            Scenario(family="ring", n=24), trace=buf, max_rounds=5
        )
        lines = buf.getvalue().splitlines()
        header = json.loads(lines[0])
        assert header["type"] == "header"
        assert header["strategy"] == "grid"
        assert header["scheduler"] == "fsync"
        assert header["family"] == "ring"
        rows = load_trace(lines)
        assert len(rows) == result.rounds

    def test_trace_works_for_stepped_strategies(self):
        buf = io.StringIO()
        result = simulate(
            hairpin_chain(8), strategy="chain", trace=buf
        )
        rows = load_trace(buf.getvalue().splitlines())
        assert len(rows) == result.rounds
        assert len(rows[-1].cells) == result.robots_final

    def test_budget_exhaustion_is_terminal_event(self):
        result = simulate(ring(20), max_rounds=2)
        assert not result.gathered
        assert len(result.events.of_kind("budget_exhausted")) == 1

    def test_stepped_schedule_hook_reuses_the_round_view(self, monkeypatch):
        """Under a schedule, step() builds each round's view to find the
        robots that moved; the ``on_round`` hook must read that view,
        not build a second one: one build at set-up plus one per
        round."""
        from repro import api

        builds = []
        view = api._EuclideanProgram.view

        def counting_view(program):
            builds.append(program)
            return view(program)

        monkeypatch.setattr(api._EuclideanProgram, "view", counting_view)
        seen = []
        result = simulate(
            Scenario(family="circle", n=12),
            strategy="euclidean",
            scheduler="ssync",
            seed=1,
            on_round=lambda r, state: seen.append(state.cells),
        )
        assert result.rounds == 15 and len(seen) == 15
        assert len(builds) == 16
        assert seen[-1] == view(builds[-1]).cells

    def test_seed_changes_async_schedule_not_result_type(self):
        r1 = simulate(ring(10), strategy="async_greedy", seed=1)
        r2 = simulate(ring(10), strategy="async_greedy", seed=1)
        assert r1.rounds == r2.rounds
        assert r1.activations == r2.activations
        assert r1.final_state.frozen() == r2.final_state.frozen()


class TestShimEquivalence:
    """``gather()`` must return exactly what the facade computes."""

    def test_gather_shim(self):
        quick = gather(ring(10))
        direct = simulate(ring(10), strategy="grid")
        assert isinstance(quick, RunResult)
        assert quick.rounds == direct.rounds
        assert quick.gathered == direct.gathered
        assert quick.final_state.frozen() == direct.final_state.frozen()
        assert quick.events.counts() == direct.events.counts()
        assert len(quick.metrics) == len(direct.metrics)


class TestRegistryContract:
    def test_unknown_strategy(self):
        with pytest.raises(KeyError, match="unknown strategy"):
            simulate(ring(8), strategy="nope")

    def test_unknown_scheduler(self):
        with pytest.raises(KeyError, match="unknown scheduler"):
            simulate(ring(8), scheduler="hsync")

    def test_incompatible_scheduler(self):
        with pytest.raises(ValueError, match="supports schedulers"):
            simulate(ring(8), strategy="grid", scheduler="async")

    def test_unknown_option_rejected(self):
        with pytest.raises(TypeError, match="unknown options"):
            simulate(ring(8), strategy="grid", view_range=2.0)

    def test_string_scenario_rejected(self):
        with pytest.raises(TypeError, match="ambiguous"):
            simulate("ring")

    def test_scenario_validation(self):
        with pytest.raises(ValueError):
            Scenario()
        with pytest.raises(ValueError):
            Scenario(family="ring")  # no n

    def test_chain_family_mismatch_is_loud(self):
        with pytest.raises(ValueError, match="hairpin"):
            simulate(Scenario(family="ring", n=12), strategy="chain")

    def test_public_surface_exports_facade(self):
        for name in (
            "simulate",
            "Scenario",
            "RunResult",
            "STRATEGIES",
            "SCHEDULERS",
        ):
            assert name in repro.__all__, f"{name} missing from __all__"
            assert hasattr(repro, name)
