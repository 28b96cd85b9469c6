"""Unit tests for the ASYNC fair-scheduler engine."""

import pytest

from repro.engine.async_scheduler import AsyncEngine
from repro.engine.errors import ConnectivityViolation
from repro.engine.termination import run_engine
from repro.grid.occupancy import SwarmState


class StayController:
    def activate(self, state, robot):
        return robot


class LeafMerger:
    """Leaves hop onto their only neighbor (sequentially safe)."""

    def activate(self, state, robot):
        nbrs = state.occupied_neighbors4(robot)
        if len(nbrs) == 1 and len(state) > 2:
            return nbrs[0]
        return robot


class TestAsyncEngine:
    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            AsyncEngine(SwarmState([]), StayController())

    def test_stay_runs_out_budget(self):
        eng = AsyncEngine(
            SwarmState([(i, 0) for i in range(5)]), StayController()
        )
        result = run_engine(eng, max_rounds=4)
        assert not result.gathered
        assert result.rounds == 4
        assert result.activations == 0

    def test_leaf_merging_gathers_line(self):
        eng = AsyncEngine(
            SwarmState([(i, 0) for i in range(10)]), LeafMerger()
        )
        result = run_engine(eng)
        assert result.gathered
        assert result.robots_final <= 2

    def test_fairness_round_counts_each_robot_once(self):
        # per round each robot is activated at most once, so a 10-line needs
        # several rounds (leaves merge from both ends; later robots see the
        # updated state within the same round)
        eng = AsyncEngine(
            SwarmState([(i, 0) for i in range(10)]), LeafMerger()
        )
        result = run_engine(eng)
        assert result.rounds >= 2

    def test_seed_determinism(self):
        r1 = run_engine(
            AsyncEngine(
                SwarmState([(i, 0) for i in range(12)]), LeafMerger(), seed=7
            )
        )
        r2 = run_engine(
            AsyncEngine(
                SwarmState([(i, 0) for i in range(12)]), LeafMerger(), seed=7
            )
        )
        assert r1.rounds == r2.rounds
        assert r1.activations == r2.activations

    def test_seed_determinism_full_results(self):
        # two runs with the same seed are identical in every observable:
        # final cells, per-round metric series, diameters — not just counts
        def run():
            eng = AsyncEngine(
                SwarmState([(i, 0) for i in range(14)]),
                LeafMerger(),
                seed=123,
            )
            result = run_engine(eng)
            series = [
                (m.round_index, m.robots, m.merged, m.diameter)
                for m in result.metrics
            ]
            return result, series, eng.state.frozen()

        r1, s1, f1 = run()
        r2, s2, f2 = run()
        assert (r1.rounds, r1.activations, r1.robots_final) == (
            r2.rounds,
            r2.activations,
            r2.robots_final,
        )
        assert s1 == s2
        assert f1 == f2

    def test_move_robot_keeps_geometry_queries_exact(self):
        # the engine mutates state via move_robot; bounding-box queries
        # (used by the per-round metrics) must stay exact throughout
        eng = AsyncEngine(
            SwarmState([(i, 0) for i in range(8)]), LeafMerger(), seed=1
        )
        while not eng.state.is_gathered():
            eng.step()
            from repro.grid.geometry import bounding_box

            assert eng.state.bounding_box() == bounding_box(eng.state.cells)

    def test_illegal_move_rejected(self):
        class Jumper:
            def activate(self, state, robot):
                return (robot[0] + 3, robot[1])

        eng = AsyncEngine(SwarmState([(0, 0), (1, 0), (2, 0)]), Jumper())
        with pytest.raises(ValueError):
            eng.step()

    def test_connectivity_enforced(self):
        class Breaker:
            def activate(self, state, robot):
                if robot == (1, 0):
                    return (1, 1)
                return robot

        eng = AsyncEngine(SwarmState([(0, 0), (1, 0), (2, 0)]), Breaker())
        with pytest.raises(ConnectivityViolation):
            eng.step()


class TestIncrementalConnectivity:
    """The per-activation ``locally_connected_after`` certificate must
    never change observable behavior vs the seed's full-BFS-per-activation
    (single-robot moves are the certificate's easiest case)."""

    def _run(self, incremental):
        from repro.baselines.async_greedy import AsyncGreedyGatherer
        from repro.swarms.generators import random_blob, ring

        results = []
        for cells in (ring(10), random_blob(60, 5)):
            eng = AsyncEngine(
                SwarmState(cells),
                AsyncGreedyGatherer(),
                seed=42,
                incremental_connectivity=incremental,
            )
            r = run_engine(eng)
            series = [
                (m.round_index, m.robots, m.merged, m.diameter)
                for m in r.metrics
            ]
            results.append(
                (
                    r.gathered,
                    r.rounds,
                    r.activations,
                    series,
                    eng.state.frozen(),
                )
            )
        return results

    def test_certificate_mode_bit_identical(self):
        assert self._run(True) == self._run(False)

    def test_certificate_mode_deterministic(self):
        assert self._run(True) == self._run(True)

    def test_breaker_still_caught_with_certificate(self):
        # the certificate is sound: a disconnecting move must still raise
        class Breaker:
            def activate(self, state, robot):
                if robot == (1, 0):
                    return (1, 1)
                return robot

        eng = AsyncEngine(
            SwarmState([(0, 0), (1, 0), (2, 0)]),
            Breaker(),
            incremental_connectivity=True,
        )
        with pytest.raises(ConnectivityViolation):
            eng.step()

    def test_disconnected_initial_swarm_rejected(self):
        # the certificate is only sound relative to a connected swarm, so
        # (like RoundEngine) disconnected input is rejected up front
        with pytest.raises(ValueError):
            AsyncEngine(
                SwarmState([(0, 0), (1, 0), (10, 10), (11, 10)]),
                StayController(),
            )
