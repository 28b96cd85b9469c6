"""Unit tests for the run-state machinery (Sections 3.2/3.3, Table 1)."""

import pytest

from repro.core.algorithm import GatherOnGrid
from repro.core.config import AlgorithmConfig
from repro.core.quasiline import run_start_sites
from repro.core.runs import RunManager
from repro.engine.scheduler import RoundEngine
from repro.grid.occupancy import SwarmState
from repro.grid.ring import RingSet
from repro.swarms.generators import ring


CFG = AlgorithmConfig()


def manager_with_starts(cells, cfg=CFG):
    state = SwarmState(cells)
    contours = RingSet.from_cells(state)
    mgr = RunManager(cfg)
    sites = run_start_sites(contours.rings, cfg.start_straight_steps)
    located, lost = mgr.locate(contours)
    mgr.start_runs(contours, sites, 0, located)
    return state, contours, mgr


class TestStartRuns:
    def test_runs_created_on_ring(self):
        _, _, mgr = manager_with_starts(ring(12))
        assert mgr.active_run_count >= 2

    def test_crowding_blocks_near_sites(self):
        # ring(12)'s outer contour (44 robots) is long enough for the
        # spacing filter; adjacent corners are 11 apart (below the viewing
        # radius) and opposite corners 22 apart (above it), so exactly the
        # two alternating corners fire (inner boundary sites are separate
        # contours and may still start)
        _, _, mgr = manager_with_starts(ring(12))
        outer_corners = {
            r.robot
            for r in mgr.runs.values()
            if r.robot in {(0, 0), (11, 0), (0, 11), (11, 11)}
        }
        assert len(outer_corners) == 2

    def test_short_contour_starts_unconditionally(self):
        # ring(8)'s outer contour (28 robots) fits inside two viewing
        # radii: every site sees every other, so the spacing filter would
        # starve the contour down to one run per batch — a livelock on
        # mergeless shapes.  Short contours admit all sites, as the paper
        # does.
        _, _, mgr = manager_with_starts(ring(8))
        outer_corners = {
            r.robot
            for r in mgr.runs.values()
            if r.robot in {(0, 0), (7, 0), (0, 7), (7, 7)}
        }
        assert len(outer_corners) == 4

    def test_start_b_two_runs_same_robot(self):
        _, _, mgr = manager_with_starts(ring(12))
        by_robot = {}
        for r in mgr.runs.values():
            by_robot.setdefault(r.robot, []).append(r)
        assert any(len(v) == 2 for v in by_robot.values())

    def test_no_duplicate_key(self):
        state, contours, mgr = manager_with_starts(ring(12))
        sites = run_start_sites(contours.rings, CFG.start_straight_steps)
        located, _ = mgr.locate(contours)
        before = mgr.active_run_count
        mgr.start_runs(contours, sites, 1, located)
        assert mgr.active_run_count == before  # same (robot, dir) blocked


class TestLocate:
    def test_fresh_runs_locatable(self):
        state, contours, mgr = manager_with_starts(ring(12))
        located, lost = mgr.locate(contours)
        assert not lost
        assert set(located) == set(mgr.runs)

    def test_lost_run_reported(self):
        state, contours, mgr = manager_with_starts(ring(12))
        # teleport a run's robot context away
        rid = min(mgr.runs)
        run = mgr.runs[rid]
        mgr.runs[rid] = run.__class__(
            run_id=run.run_id,
            robot=(99, 99),
            prev=(98, 99),
            direction=run.direction,
            axis=run.axis,
            born_round=run.born_round,
        )
        located, lost = mgr.locate(contours)
        assert rid in lost


class TestRunLifecycle:
    def test_runs_advance_one_robot_per_round(self):
        cells = ring(16)
        ctrl = GatherOnGrid(CFG)
        engine = RoundEngine(SwarmState(cells), ctrl)
        engine.step()
        pos0 = {r.run_id: r.robot for r in ctrl.run_manager.runs.values()}
        engine.step()
        pos1 = {r.run_id: r.robot for r in ctrl.run_manager.runs.values()}
        moved = [
            rid for rid in pos0
            if rid in pos1 and pos1[rid] != pos0[rid]
        ]
        assert moved, "runs must move along the boundary every round"

    def test_folds_happen_on_mergeless_ring(self):
        cells = ring(16)
        ctrl = GatherOnGrid(CFG)
        engine = RoundEngine(SwarmState(cells), ctrl)
        for _ in range(3):
            engine.step()
        assert len(ctrl.events.of_kind("fold")) >= 1

    def test_merged_runner_terminates(self):
        # run the full algorithm; every terminated run must carry a reason
        cells = ring(10)
        ctrl = GatherOnGrid(CFG)
        engine = RoundEngine(SwarmState(cells), ctrl)
        for _ in range(10):
            if engine.state.is_gathered():
                break
            engine.step()
        reasons = {e.data["reason"] for e in ctrl.events.of_kind("run_stop")}
        allowed = {
            "run_lost",
            "run_merged",
            "run_saw_sequent",
            "run_saw_endpoint",
        }
        assert reasons <= allowed

    def test_run_ids_unique_and_monotone(self):
        cells = ring(30)
        ctrl = GatherOnGrid(CFG)
        engine = RoundEngine(SwarmState(cells), ctrl)
        seen = set()
        for _ in range(50):
            if engine.state.is_gathered():
                break
            engine.step()
            for e in ctrl.events.of_kind("run_start"):
                seen.add(e.data["run_id"])
        assert len(seen) == len(
            {e.data["run_id"] for e in ctrl.events.of_kind("run_start")}
        )


class TestRunPassing:
    def test_opposite_runs_survive_meeting(self):
        """A good pair's runs approach head-on; passing (paper Fig. 9 b)
        must let them coexist instead of mutually terminating."""
        cells = ring(24)
        ctrl = GatherOnGrid(CFG)
        engine = RoundEngine(SwarmState(cells), ctrl)
        # Start-B corners launch opposite-direction pairs; run until the
        # first merge: no run may die via 'run_saw_sequent' with an
        # opposite-direction partner (only same-direction crowding counts).
        for _ in range(30):
            if engine.state.is_gathered():
                break
            engine.step()
        stops = [e.data["reason"] for e in ctrl.events.of_kind("run_stop")]
        # opposite-direction meetings end in merges or passing, never in
        # the sequent-run rule alone on this symmetric shape
        assert stops.count("run_saw_sequent") <= len(stops) // 2

    def test_passing_suspends_folds_at_close_range(self):
        """While two opposite runs are within the passing distance the
        planner must not emit folds for them."""
        from repro.core.runs import Run

        mgr = RunManager(CFG)
        cells = ring(16)
        state = SwarmState(cells)
        contours = RingSet.from_cells(state)
        robots = contours.rings[0].robots_cycle()
        n = len(robots)
        # place run 0 on a corner robot (foldable!) with an opposite run
        # 2 steps ahead of it
        i = robots.index((0, 0))
        j = (i + 2) % n
        mgr.runs[0] = Run(0, robots[i], robots[(i - 1) % n], 1, "h", -5)
        mgr.runs[1] = Run(1, robots[j], robots[(j + 1) % n], -1, "h", -5)
        located, lost = mgr.locate(contours)
        moves = mgr.plan(contours, state.cells, {}, located, lost, 99)
        assert robots[i] not in moves, "corner must not fold while passing"
        # sanity: without the opposite run the same corner does fold
        mgr2 = RunManager(CFG)
        mgr2.runs[0] = Run(0, robots[i], robots[(i - 1) % n], 1, "h", -5)
        located2, lost2 = mgr2.locate(contours)
        moves2 = mgr2.plan(contours, state.cells, {}, located2, lost2, 99)
        assert robots[i] in moves2


class TestFoldGuards:
    def test_fold_requires_corner(self):
        mgr = RunManager(CFG)
        occ = {(0, 0), (1, 0), (2, 0)}
        assert mgr._fold_target(occ, (1, 0), {}, set()) is None  # collinear

    def test_fold_target_is_between_diagonal(self):
        mgr = RunManager(CFG)
        occ = {(0, 0), (1, 0), (0, 1)}
        assert mgr._fold_target(occ, (0, 0), {}, set()) == (1, 1)

    def test_fold_blocked_by_occupied_diagonal(self):
        mgr = RunManager(CFG)
        occ = {(0, 0), (1, 0), (0, 1), (1, 1)}
        assert mgr._fold_target(occ, (0, 0), {}, set()) is None

    def test_fold_blocked_by_moving_anchor(self):
        mgr = RunManager(CFG)
        occ = {(0, 0), (1, 0), (0, 1)}
        assert (
            mgr._fold_target(occ, (0, 0), {(1, 0): (1, 1)}, set()) is None
        )

    def test_fold_blocked_by_runner_anchor(self):
        mgr = RunManager(CFG)
        occ = {(0, 0), (1, 0), (0, 1)}
        assert mgr._fold_target(occ, (0, 0), {}, {(1, 0)}) is None

    def test_fold_allowed_with_distant_runner(self):
        mgr = RunManager(CFG)
        occ = {(0, 0), (1, 0), (0, 1)}
        assert mgr._fold_target(occ, (0, 0), {}, {(5, 5)}) == (1, 1)


class TestEndpointAheadDegenerate:
    """Regression: `_endpoint_ahead` on tiny contours.

    ``horizon = min(run_passing_distance + 1, n - 2)`` goes non-positive
    for 2-robot cycles; the guard must return False instead of probing a
    degenerate wrap-around window.
    """

    def _run(self, robots):
        from repro.core.runs import Run

        return Run(0, robots[0], robots[-1], 1, "h", -5)

    def test_two_robot_cycle(self):
        mgr = RunManager(CFG)
        robots = ((0, 0), (1, 0))
        assert mgr._endpoint_ahead(robots, 0, self._run(robots)) is False

    def test_single_robot_cycle(self):
        mgr = RunManager(CFG)
        robots = ((0, 0),)
        assert mgr._endpoint_ahead(robots, 0, self._run(robots)) is False

    def test_three_robot_cycle_detects_endpoint(self):
        # horizon clamps to 1; a perpendicular 3-robot segment right ahead
        # must still be seen
        mgr = RunManager(CFG)
        robots = ((0, 0), (0, 1), (0, 2))  # vertical segment, axis "h"
        run = self._run(robots)
        assert mgr._endpoint_ahead(robots, 0, run) is True

    def test_degenerate_boundary_simulation(self):
        # a 2x3 block gathers without tripping the degenerate horizon
        from repro.core.algorithm import gather

        r = gather([(x, y) for x in range(3) for y in range(2)])
        assert r.gathered


class TestOneThickContours:
    """A robot on a 1-thick contour appears several times in one cycle,
    and its occurrences are *not* contiguous (the contour passes it once
    per side).  Run location must disambiguate occurrences by the
    remembered predecessor, never by assuming contiguity."""

    L_SHAPE = [(0, 0), (1, 0), (2, 0), (2, 1), (2, 2)]

    def _locate_single(self, robot, prev, direction):
        from repro.core.runs import Run

        state = SwarmState(self.L_SHAPE)
        contours = RingSet.from_cells(state)
        mgr = RunManager(CFG)
        mgr.runs[0] = Run(0, robot, prev, direction, "h", -5)
        located, lost = mgr.locate(contours)
        return contours, located, lost

    def test_occurrences_not_contiguous(self):
        contours = RingSet.from_cells(SwarmState(self.L_SHAPE))
        robots = contours.rings[0].robots_cycle()
        idx = [i for i, r in enumerate(robots) if r == (1, 0)]
        assert len(idx) == 2
        i, j = idx
        assert j - i > 1 and (i + len(robots)) - j > 1

    def test_locate_picks_occurrence_by_predecessor(self):
        # heading right along the bottom: behind is (0, 0)
        contours, located, lost = self._locate_single((1, 0), (0, 0), 1)
        assert not lost
        _, ring_, node = located[0]
        assert ring_.behind_cell(node, 1) == (0, 0)
        assert ring_.step(node, 1).cell == (2, 0)
        # the same robot+direction with the return-leg predecessor (the
        # contour steps diagonally from (2, 1) home to (1, 0)) must
        # resolve to the *other* occurrence
        contours, located2, lost2 = self._locate_single((1, 0), (2, 1), 1)
        assert not lost2
        _, ring2, node2 = located2[0]
        assert ring2.behind_cell(node2, 1) == (2, 1)
        assert ring2.step(node2, 1).cell == (0, 0)
        assert node2 is not node

    def test_one_thick_shapes_gather(self):
        from repro.core.algorithm import gather

        for cells in (
            [(i, 0) for i in range(7)],
            self.L_SHAPE,
            [(0, 0), (1, 0), (2, 0), (1, 1), (1, 2)],  # T shape
        ):
            r = gather(cells)
            assert r.gathered, f"1-thick shape {cells} must gather"


class TestForkRestore:
    """``RunManager.fork``/``restore``: one planned round, committed
    several times, and the checkpoint pair built on the same values."""

    def planned_round(self):
        ctrl = GatherOnGrid(CFG)
        engine = RoundEngine(SwarmState(ring(16)), ctrl)
        for _ in range(3):
            engine.step()
        state = engine.state.copy()
        moves = dict(ctrl.plan_round(state, engine.round_index))
        return ctrl, state, moves, engine.round_index

    def test_restored_fork_commits_identically(self):
        ctrl, state, moves, rnd = self.planned_round()
        mgr = ctrl.run_manager
        fork = mgr.fork()
        assert fork.planned and fork.runs
        outcomes = []
        for _ in range(2):
            mgr.restore(fork)
            assert mgr.fork() == fork
            branch = state.copy()
            branch.apply_moves(moves)
            outcomes.append(
                (mgr.finalize(moves, branch.cells), mgr.fork())
            )
        assert outcomes[0] == outcomes[1]
        # finalize consumed the manager's containers, never the fork's
        assert fork.planned and mgr.fork().planned == ()

    def test_partial_commit_leaves_the_fork_intact(self):
        ctrl, state, moves, rnd = self.planned_round()
        mgr = ctrl.run_manager
        fork = mgr.fork()
        mgr.restore(fork)
        mgr.finalize({}, state.cells)  # a stall round
        mgr.restore(fork)
        assert mgr.fork() == fork

    def test_checkpoint_is_a_fork_without_planned_records(self):
        from repro.errors import InvariantError
        from repro.trace.replay import (
            checkpoint_fork,
            controller_checkpoint,
            restore_controller,
        )

        ctrl, state, moves, rnd = self.planned_round()
        with pytest.raises(InvariantError, match="planned records"):
            controller_checkpoint(ctrl)
        merged = state.apply_moves(moves)
        ctrl.notify_applied(state, rnd, moves, merged)
        fork = ctrl.run_manager.fork()
        checkpoint = controller_checkpoint(ctrl)
        assert checkpoint_fork(checkpoint) == fork
        assert restore_controller(checkpoint).run_manager.fork() == fork
