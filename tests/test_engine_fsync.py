"""Unit tests for the FSYNC engine."""

import pytest

from repro.engine.errors import ConnectivityViolation
from repro.engine.scheduler import RoundEngine
from repro.engine.termination import run_engine
from repro.grid.occupancy import SwarmState


class StaticController:
    """Does nothing; the swarm never changes."""

    def plan_round(self, state, round_index):
        return {}

    def notify_applied(self, state, round_index, moves, merged):
        pass


class ScriptedController:
    """Plays back a fixed list of per-round move dicts."""

    def __init__(self, script):
        self.script = script
        self.notifications = []

    def plan_round(self, state, round_index):
        if round_index < len(self.script):
            return self.script[round_index]
        return {}

    def notify_applied(self, state, round_index, moves, merged):
        self.notifications.append((round_index, dict(moves), merged))


class TestEngineSetup:
    def test_empty_swarm_rejected(self):
        with pytest.raises(ValueError):
            RoundEngine(SwarmState([]), StaticController())

    def test_disconnected_swarm_rejected(self):
        with pytest.raises(ValueError):
            RoundEngine(SwarmState([(0, 0), (5, 5)]), StaticController())

    def test_gathered_immediately(self):
        eng = RoundEngine(SwarmState([(0, 0), (1, 0)]), StaticController())
        result = run_engine(eng)
        assert result.gathered
        assert result.rounds == 0


class TestStep:
    def test_scripted_merge_counted(self):
        ctrl = ScriptedController([{(0, 0): (1, 0)}])
        eng = RoundEngine(SwarmState([(0, 0), (1, 0), (2, 0)]), ctrl)
        merged = eng.step()
        assert merged == 1
        assert len(eng.state) == 2

    def test_notify_called_with_moves(self):
        ctrl = ScriptedController([{(0, 0): (1, 0)}])
        eng = RoundEngine(SwarmState([(0, 0), (1, 0), (2, 0)]), ctrl)
        eng.step()
        assert ctrl.notifications == [(0, {(0, 0): (1, 0)}, 1)]

    def test_connectivity_violation_detected(self):
        # moving the middle robot away disconnects the line
        ctrl = ScriptedController([{(1, 0): (1, 1)}])
        eng = RoundEngine(SwarmState([(0, 0), (1, 0), (2, 0)]), ctrl)
        with pytest.raises(ConnectivityViolation) as exc:
            eng.step()
        assert exc.value.round_index == 0
        assert exc.value.n_components >= 2

    def test_connectivity_check_can_be_disabled(self):
        ctrl = ScriptedController([{(1, 0): (1, 1)}])
        eng = RoundEngine(
            SwarmState([(0, 0), (1, 0), (2, 0)]),
            ctrl,
            check_connectivity=False,
        )
        eng.step()  # no raise

    def test_metrics_recorded(self):
        ctrl = ScriptedController([{(0, 0): (1, 0)}])
        eng = RoundEngine(SwarmState([(0, 0), (1, 0), (2, 0)]), ctrl)
        eng.step()
        assert len(eng.metrics) == 1
        row = eng.metrics[0]
        assert row.robots == 2
        assert row.merged == 1

    def test_on_round_callback(self):
        seen = []
        eng = RoundEngine(
            SwarmState([(0, 0), (1, 0), (2, 0)]), StaticController()
        )
        run_engine(
            eng, max_rounds=2, on_round=lambda i, s: seen.append((i, len(s)))
        )
        assert seen == [(0, 3), (1, 3)]


class TestRun:
    def test_budget_exhaustion(self):
        eng = RoundEngine(
            SwarmState([(i, 0) for i in range(5)]), StaticController()
        )
        result = run_engine(eng, max_rounds=7)
        assert not result.gathered
        assert result.rounds == 7

    def test_result_accounting(self):
        # after round 0 only 2 adjacent robots remain -> already gathered
        ctrl = ScriptedController([{(0, 0): (1, 0)}, {(1, 0): (2, 0)}])
        eng = RoundEngine(SwarmState([(0, 0), (1, 0), (2, 0)]), ctrl)
        result = run_engine(eng)
        assert result.gathered
        assert result.rounds == 1
        assert result.robots_initial == 3
        assert result.robots_final == 2
        assert result.merges_total == 1
        assert 0 < result.rounds_per_robot() <= 1
