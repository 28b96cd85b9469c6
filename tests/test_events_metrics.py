"""Unit tests for events, metrics, and termination helpers."""

import numpy as np

from repro.engine.events import Event, EventLog
from repro.engine.metrics import MetricsLog, RoundMetrics
from repro.engine.termination import (
    default_round_budget,
    is_gathered,
    run_engine,
)
from repro.grid.occupancy import SwarmState


class TestEventLog:
    def test_emit_and_filter(self):
        log = EventLog()
        log.emit(0, "merge", removed=2)
        log.emit(1, "fold", robot=(0, 0))
        log.emit(1, "merge", removed=1)
        assert len(log) == 3
        merges = log.of_kind("merge")
        assert [e.round_index for e in merges] == [0, 1]

    def test_counts(self):
        log = EventLog()
        for _ in range(3):
            log.emit(0, "a")
        log.emit(1, "b")
        assert log.counts() == {"a": 3, "b": 1}

    def test_rounds_with(self):
        log = EventLog()
        log.emit(5, "x")
        log.emit(2, "x")
        log.emit(5, "x")
        assert log.rounds_with("x") == [2, 5]

    def test_event_data_frozen_shape(self):
        e = Event(0, "merge", {"removed": 1})
        assert e.data["removed"] == 1


class TestSharedEngineLog:
    """The engine adopts the controller's EventLog (one round-ordered
    stream) and emits terminal events into it."""

    def _gather(self, cells, **kwargs):
        from repro.core.algorithm import gather

        return gather(cells, **kwargs)

    def test_result_events_is_controller_log(self):
        from repro.core.algorithm import GatherOnGrid
        from repro.engine.scheduler import RoundEngine
        from repro.swarms.generators import ring

        ctrl = GatherOnGrid()
        engine = RoundEngine(SwarmState(ring(10)), ctrl)
        result = run_engine(engine)
        assert result.events is ctrl.events  # one shared log

    def test_gather_emits_terminal_gathered(self):
        from repro.swarms.generators import ring

        result = self._gather(ring(10))
        terminal = result.events.of_kind("gathered")
        assert len(terminal) == 1
        assert terminal[0].round_index == result.rounds
        assert terminal[0].data["robots"] == result.robots_final

    def test_budget_exhaustion_event(self):
        from repro.swarms.generators import ring

        result = self._gather(ring(20), max_rounds=2)
        assert not result.gathered
        assert len(result.events.of_kind("budget_exhausted")) == 1
        assert not result.events.of_kind("gathered")

    def test_events_round_ordered(self):
        from repro.swarms.generators import ring

        result = self._gather(ring(12))
        rounds = [e.round_index for e in result.events]
        assert rounds == sorted(rounds)
        # controller events (run_start/fold/merge/run_stop) and the
        # engine's terminal event share the log
        kinds = set(result.events.counts())
        assert "fold" in kinds and "gathered" in kinds

    def test_controller_without_log_gets_fresh_one(self):
        from repro.engine.events import EventLog
        from repro.engine.scheduler import RoundEngine

        class Still:
            def plan_round(self, state, round_index):
                return {}

            def notify_applied(self, state, round_index, moves, merged):
                pass

        engine = RoundEngine(
            SwarmState([(0, 0), (3, 0), (1, 0), (2, 0)]), Still()
        )
        assert isinstance(engine.events, EventLog)
        result = run_engine(engine, max_rounds=1)
        assert result.events.counts() == {"budget_exhausted": 1}


class TestMetricsLog:
    def _make(self):
        log = MetricsLog()
        log.record(RoundMetrics(0, 10, 0, 5))
        log.record(RoundMetrics(1, 8, 2, 5))
        log.record(RoundMetrics(2, 8, 0, 4, active_runs=12))
        return log

    def test_series(self):
        log = self._make()
        assert list(log.series("robots")) == [10, 8, 8]

    def test_series_with_missing(self):
        log = self._make()
        s = log.series("active_runs")
        assert np.isnan(s[0]) and s[2] == 12

    def test_totals(self):
        log = self._make()
        assert log.total_merged() == 2
        assert log.rounds_without_merge() == 2

    def test_summary(self):
        log = self._make()
        s = log.summary()
        assert s["rounds"] == 3
        assert s["merged"] == 2
        assert s["merge_rounds"] == 1

    def test_empty_summary(self):
        assert MetricsLog().summary()["rounds"] == 0


class TestTermination:
    def test_is_gathered(self):
        assert is_gathered(SwarmState([(0, 0), (1, 1)]))
        assert not is_gathered(SwarmState([(0, 0), (2, 1)]))

    def test_budget_linear(self):
        assert default_round_budget(10) == 2200
        assert default_round_budget(0) >= 1
        # Theorem 1's constant (2nL + n with L=22 is 45n) fits in the budget
        n = 100
        assert default_round_budget(n) > 45 * n


class TestTerminalEventDedup:
    def test_rerun_without_progress_does_not_duplicate(self):
        from repro.core.algorithm import GatherOnGrid
        from repro.engine.scheduler import RoundEngine
        from repro.swarms.generators import ring

        eng = RoundEngine(SwarmState(ring(10)), GatherOnGrid())
        r1 = run_engine(eng)
        assert r1.gathered
        r2 = run_engine(eng)  # already gathered: no round, no terminal
        assert len(r2.events.of_kind("gathered")) == 1

    def test_resumed_run_logs_both_outcomes(self):
        from repro.core.algorithm import GatherOnGrid
        from repro.engine.scheduler import RoundEngine
        from repro.swarms.generators import ring

        eng = RoundEngine(SwarmState(ring(14)), GatherOnGrid())
        r1 = run_engine(eng, max_rounds=2)
        assert not r1.gathered
        r2 = run_engine(eng)  # resume with the default budget
        assert r2.gathered
        # chronological journal: the interim budget stop, then the finish
        assert len(r2.events.of_kind("budget_exhausted")) == 1
        assert len(r2.events.of_kind("gathered")) == 1

    def test_dedup_is_keyed_on_the_round_index(self):
        # Rounds in which no robot moves still end a new run segment.
        from repro.engine.async_scheduler import AsyncEngine

        class Stay:
            def activate(self, state, robot):
                return robot

        eng = AsyncEngine(SwarmState([(i, 0) for i in range(5)]), Stay())
        run_engine(eng, max_rounds=2)
        run_engine(eng, max_rounds=2)  # no new round: no new terminal
        result = run_engine(eng, max_rounds=4)
        ends = result.events.of_kind("budget_exhausted")
        assert [e.round_index for e in ends] == [2, 4]
