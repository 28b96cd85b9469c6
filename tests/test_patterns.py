"""Unit tests for the merge patterns (paper Section 3.1, Figs. 2-3)."""

import pytest

from repro.core.config import AlgorithmConfig
from repro.core.patterns import (
    MergePattern,
    compose_moves,
    merge_move_for,
    plan_merges,
)
from repro.core.view import LocalView
from repro.grid.connectivity import is_connected
from repro.grid.occupancy import SwarmState


CFG = AlgorithmConfig()


def apply(cells, cfg=CFG):
    state = SwarmState(cells)
    moves, pats = plan_merges(state, cfg)
    merged = state.apply_moves(moves)
    return state, moves, pats, merged


class TestLeafMerge:
    def test_t_shape_merges_down(self):
        # T-shape: the stem and row merge toward each other (several
        # patterns compose); robots are anonymous so we assert counts
        state, moves, pats, merged = apply([(0, 0), (1, 0), (2, 0), (1, 1)])
        assert merged >= 1
        assert is_connected(state.cells)

    def test_isolated_leaf_merges(self):
        # long line with a single prong: the prong is a leaf (its column
        # and row runs are blocked) and hops onto its anchor
        line = [(x, 0) for x in range(10)]
        state, moves, pats, merged = apply(line + [(5, 1)])
        assert (5, 1) in moves
        assert moves[(5, 1)] == (5, 0)

    def test_leaf_pattern_kind(self):
        _, _, pats, _ = apply([(0, 0), (1, 0), (2, 0), (1, 1)])
        assert any(p.kind == "leaf" for p in pats) or any(
            p.kind == "bump" and (1, 1) in p.movers for p in pats
        )

    def test_leaf_canceled_when_target_moves(self):
        # leaf (0,1) attached to (0,0) which is itself a bump mover hopping
        # onto the leaf... construct: vertical pair on a supported row
        cells = [
            (0, 1), (0, 0), (1, 0), (0, -1),
            (1, -1), (-1, -1), (2, -1), (-1, 0),
        ]
        state = SwarmState(cells)
        moves, pats = plan_merges(state, CFG)
        # no swap: applying never increases robot count and keeps connectivity
        before = len(state)
        state.apply_moves(moves)
        assert len(state) <= before
        assert is_connected(state.cells)


class TestCornerMerge:
    def test_corner_merges_onto_diagonal(self):
        # L-corner with occupied diagonal, padded so no bump eats it first:
        #   # #
        #   c #   c at (0,0), diagonal (1,1) occupied
        cells = [
            (0, 0), (1, 0), (1, 1), (0, 1), (2, 0), (2, 1), (1, 2), (2, 2),
        ]
        # (0,0): neighbors (1,0),(0,1) perpendicular, diag (1,1) occupied
        state = SwarmState(cells)
        moves, _ = plan_merges(state, CFG)
        if (0, 0) in moves:
            assert moves[(0, 0)] == (1, 1)

    def test_corner_disabled_by_config(self):
        cfg = AlgorithmConfig(
            enable_corner_merges=False, enable_bump_merges=False
        )
        cells = [
            (0, 0), (1, 0), (1, 1), (2, 0), (2, 1), (1, 2), (2, 2), (0, 1),
        ]
        moves, pats = plan_merges(SwarmState(cells), cfg)
        assert all(p.kind == "leaf" for p in pats)


class TestBumpMerge:
    def test_supported_row_drops(self):
        # 3-row on top of a wider row: the top bump hops down and merges.
        # (The floating base row moves too — robots are anonymous, so we
        # assert the top pattern and net progress, not exact cells.)
        top = [(x, 1) for x in range(3)]
        base = [(x, 0) for x in range(-1, 4)]
        state, moves, pats, merged = apply(top + base)
        assert any(
            p.kind == "bump"
            and set(p.movers) == set(top)
            and p.direction == (0, -1)
            for p in pats
        )
        assert merged >= 2
        assert is_connected(state.cells)

    def test_anchored_row_is_stationary(self):
        # with a third row below, the middle row cannot bump anywhere
        top = [(x, 2) for x in range(3)]
        mid = [(x, 1) for x in range(-1, 4)]
        bot = [(x, 0) for x in range(-1, 4)]
        _, moves, pats, _ = apply(top + mid + bot)
        assert not any(set(p.movers) == set(mid) for p in pats)
        # the top row still drops onto mid
        assert all(moves.get(c) == (c[0], 1) for c in top)

    def test_open_far_side_required(self):
        # a row sandwiched between two rows can't bump anywhere
        mid = [(x, 1) for x in range(3)]
        below = [(x, 0) for x in range(3)]
        above = [(x, 2) for x in range(3)]
        _, moves, pats, _ = apply(mid + below + above)
        assert not any(
            p.kind == "bump" and set(p.movers) == set(mid) for p in pats
        )

    def test_too_long_run_skipped(self):
        k = CFG.max_bump_length + 1
        top = [(x, 1) for x in range(k)]
        base = [(x, 0) for x in range(-1, k + 1)]
        _, _, pats, _ = apply(top + base)
        assert not any(set(p.movers) == set(top) for p in pats)

    def test_partial_support_lands_contiguously(self):
        # support only under one end: the run still hops and stays connected
        top = [(x, 1) for x in range(4)]
        base = [(0, 0), (0, -1), (1, -1), (-1, 0), (-1, -1)]
        state, moves, pats, merged = apply(top + base)
        assert merged >= 1
        assert is_connected(state.cells)

    def test_vertical_bump(self):
        left = [(1, y) for y in range(3)]
        base = [(0, y) for y in range(-1, 4)]
        state, moves, pats, merged = apply(left + base)
        assert any(
            p.kind == "bump"
            and set(p.movers) == set(left)
            and p.direction == (-1, 0)
            for p in pats
        )
        assert merged >= 2
        assert is_connected(state.cells)

    def test_disabled_by_config(self):
        cfg = AlgorithmConfig(enable_bump_merges=False)
        top = [(x, 1) for x in range(3)]
        base = [(x, 0) for x in range(-1, 4)]
        _, pats = plan_merges(SwarmState(top + base), cfg)
        assert all(p.kind != "bump" for p in pats)


class TestComposition:
    def test_perpendicular_patterns_give_diagonal(self):
        p1 = MergePattern("bump", ((0, 0),), (0, -1), frozenset())
        p2 = MergePattern("bump", ((0, 0),), (1, 0), frozenset())
        moves = compose_moves([p1, p2])
        assert moves[(0, 0)] == (1, -1)

    def test_opposite_votes_cancel(self):
        p1 = MergePattern("bump", ((0, 0),), (0, -1), frozenset())
        p2 = MergePattern("bump", ((0, 0),), (0, 1), frozenset())
        assert compose_moves([p1, p2]) == {}

    def test_solid_square_shrinks_every_round(self):
        state, moves, pats, merged = apply(
            [(x, y) for x in range(6) for y in range(6)]
        )
        # all four edge rows fold onto the interior: 6x6 -> 4x4
        assert len(state) == 16
        assert is_connected(state.cells)

    def test_corner_of_square_moves_diagonally(self):
        state = SwarmState([(x, y) for x in range(6) for y in range(6)])
        moves, _ = plan_merges(state, CFG)
        assert moves[(0, 0)] == (1, 1)
        assert moves[(5, 5)] == (4, 4)


class TestConnectivityPreservation:
    SHAPES = [
        [(x, y) for x in range(5) for y in range(5)],  # solid
        [(x, 0) for x in range(9)],  # line
        [(0, 0), (1, 0), (2, 0), (2, 1), (2, 2)],  # L
        [(x, 1) for x in range(4)] + [(x, 0) for x in range(-1, 5)],
    ]

    @pytest.mark.parametrize("shape", SHAPES)
    def test_one_round_preserves_connectivity(self, shape):
        state = SwarmState(shape)
        moves, _ = plan_merges(state, CFG)
        state.apply_moves(moves)
        assert is_connected(state.cells)


class TestRegressions:
    def test_support_corner_must_not_move(self):
        """Hypothesis-found counterexample: the corner robot at (-1, 0) is a
        support of the column bump hopping west; letting it corner-merge
        away strands the landed robots.  It must be frozen."""
        cells = [
            (-3, -1), (-2, -1), (-1, -1), (-1, 0), (0, -1), (0, 0), (0, 1),
        ]
        state = SwarmState(cells)
        moves, _ = plan_merges(state, CFG)
        assert (-1, 0) not in moves
        state.apply_moves(moves)
        assert is_connected(state.cells)


class TestLocalDecision:
    """merge_move_for must agree with the global planner (locality audit)."""

    SHAPES = [
        [(x, y) for x in range(5) for y in range(5)],
        [(x, 0) for x in range(9)],
        [(x, 1) for x in range(3)] + [(x, 0) for x in range(-1, 4)],
        [(0, 0), (1, 0), (2, 0), (1, 1)],
        [
            (x, y)
            for x in range(6)
            for y in range(6)
            if x in (0, 5) or y in (0, 5)
        ],
    ]

    @pytest.mark.parametrize("shape", SHAPES)
    def test_agreement_with_global(self, shape):
        state = SwarmState(shape)
        moves, _ = plan_merges(state, CFG)
        for robot in shape:
            local = merge_move_for(state, robot, CFG)
            assert local == moves.get(robot), f"robot {robot}"

    @pytest.mark.parametrize("shape", SHAPES)
    def test_decision_respects_viewing_radius(self, shape):
        """Evaluating against a LocalView raises on any out-of-range query."""
        state = SwarmState(shape)
        for robot in shape:
            view = LocalView(state, robot, CFG.viewing_radius)
            merge_move_for(view, robot, CFG)  # must not raise LocalityError


def assert_plans_agree(cache, state, cfg=CFG):
    """The cache's moves must equal the full scan's on ``state``."""
    assert cache.plan() == plan_merges(state, cfg)[0]


def translated(cells, offset):
    dx, dy = offset
    return [(x + dx, y + dy) for x, y in cells]


# Gather inputs by the run structure of their lines: the one-robot-wide
# shapes' lines are many short runs, so a dirty line re-derives runs
# that no move touched; the filled shapes' lines are few long runs, so
# a move splits or trims a long run.
TRAJECTORY_INPUTS = {
    "line": (("ring", 60), ("spiral", 120)),
    "run": (("blob", 150), ("solid", 400)),
}
over_inputs = pytest.mark.parametrize(
    "inputs", list(TRAJECTORY_INPUTS.values()), ids=list(TRAJECTORY_INPUTS)
)
#: The merge ablations: each drops or narrows one pattern family, so
#: each mask path runs without the masks the others contribute.
ABLATIONS = {
    "no_corners": AlgorithmConfig(enable_corner_merges=False),
    "no_bumps": AlgorithmConfig(enable_bump_merges=False),
    "bump_len_1": AlgorithmConfig(max_bump_length=1),
}
#: Translations: masks are relative to an origin below the swarm, so
#: negative and six-digit coordinates must give the same moves.
OFFSETS = {"negative": (-1_000, -777), "six_digit": (123_456, 654_321)}


def partial_activation():
    from repro.engine.ssync_scheduler import ActivationSchedule, make_policy

    return ActivationSchedule(make_policy("uniform", p=0.5, seed=1), 8)


class TestMergeCacheRunGranular:
    """:class:`MergeCache` along gather trajectories: every round, the
    cached moves must equal the full scan's."""

    def drive(self, cells, steps, schedule=None, cfg=CFG):
        """Run the gathering controller (FSYNC, or under ``schedule``)
        and check the cache against the full scan every round."""
        from repro.core.algorithm import GatherOnGrid
        from repro.engine.scheduler import RoundEngine

        ctrl = GatherOnGrid(cfg)
        eng = RoundEngine(
            SwarmState(set(cells)), ctrl, schedule, check_connectivity=False
        )
        pipeline = ctrl._pipeline
        for _ in range(steps):
            if eng.state.is_gathered():
                break
            eng.step()
            # the cache lags one apply_moves until the next plan; sync
            # it to the post-move state (the delta path, not a rebuild)
            # before comparing
            assert pipeline._version == eng.state.version - 1
            pipeline._sync(eng.state)
            assert_plans_agree(pipeline.merge_cache, eng.state, cfg)

    def drive_inputs(self, inputs, offset=(0, 0), cfg=CFG):
        """Each input under FSYNC and under SSYNC p = 0.5."""
        from repro.swarms.generators import family

        for fam, n in inputs:
            cells = translated(family(fam, n), offset)
            self.drive(cells, 80, cfg=cfg)
            self.drive(cells, 80, partial_activation(), cfg=cfg)

    @over_inputs
    def test_trajectory_differential(self, inputs):
        from repro.swarms.generators import family

        for fam, n in inputs:
            self.drive(family(fam, n), 80)

    @over_inputs
    def test_trajectory_differential_partial_activation(self, inputs):
        """SSYNC rounds apply only a subset of the planned moves, so the
        change sets differ from any FSYNC round's."""
        from repro.swarms.generators import family

        for fam, n in inputs:
            self.drive(family(fam, n), 80, partial_activation())

    @over_inputs
    @pytest.mark.parametrize(
        "cfg", list(ABLATIONS.values()), ids=list(ABLATIONS)
    )
    def test_trajectory_differential_ablations(self, inputs, cfg):
        self.drive_inputs(inputs, cfg=cfg)

    @over_inputs
    @pytest.mark.parametrize(
        "offset", list(OFFSETS.values()), ids=list(OFFSETS)
    )
    def test_trajectory_differential_translated(self, inputs, offset):
        self.drive_inputs(inputs, offset)


#: Hand-built single moves, ``name -> (cells before, moves)``.
HAND_BUILT = {
    # vacating mid-run splits one run into two
    "run_split": (
        [(x, 0) for x in range(7)] + [(x, -1) for x in range(7)],
        {(3, 0): (3, -1)},
    ),
    # filling the gap between two runs merges them
    "run_merge": (
        [(x, 0) for x in range(7) if x != 3]
        + [(x, -1) for x in range(7)]
        + [(3, 2), (3, 1)],
        {(3, 1): (3, 0)},
    ),
    # the hovering robot lands on (0, 1): row 0's north side is no
    # longer free, so its bump must flip or vanish
    "free_side_flip": (
        [(x, 0) for x in range(4)] + [(x, -1) for x in range(4)] + [(0, 2)],
        {(0, 2): (0, 1)},
    ),
    # two-robot bump over a support; removing the support's neighbour
    # changes bump membership and leaf eligibility nearby
    "mover_cascade": (
        [(0, 0), (1, 0), (0, -1), (2, -1), (2, 0), (3, 0)],
        {(3, 0): (2, -1)},
    ),
    # a merge leaves two robots that are each other's only neighbour:
    # each leaf freezes the other's target, so neither hops
    "mutual_leaves_row": ([(0, 0), (1, 0), (2, 0)], {(2, 0): (1, 0)}),
    "mutual_leaves_column": ([(0, 0), (0, 1), (0, 2)], {(0, 2): (0, 1)}),
}


class TestMergeCacheMatchesRebuild:
    """Line invalidation of :class:`MergeCache` on single hand-built
    moves: the cached moves must equal the full scan's."""

    def _updated(self, before, moves, cfg=CFG):
        """Apply ``moves`` to ``before`` through the cache and return
        (cache, state)."""
        from repro.core.patterns import MergeCache

        state = SwarmState(set(before))
        cache = MergeCache(cfg)
        cache.rebuild(state)
        assert_plans_agree(cache, state, cfg)
        state.apply_moves(moves)
        cache.update(state, state.last_changed)
        return cache, state

    def check(self, name, cfg=CFG):
        cache, state = self._updated(*HAND_BUILT[name], cfg)
        assert_plans_agree(cache, state, cfg)

    def test_run_split_across_dirty_cell(self):
        """Vacating mid-run splits one cached run into two."""
        self.check("run_split")

    def test_run_merge_across_dirty_cell(self):
        """Filling the gap between two cached runs merges them."""
        self.check("run_merge")

    def test_free_side_flip_from_adjacent_row(self):
        """A change in row y+1 re-evaluates the run of row y whose span
        it covers, without touching the run structure of row y."""
        self.check("free_side_flip")

    def test_mover_status_cascade_releases_leaf(self):
        """When a bump dissolves, its former movers become eligible for
        leaf/corner candidacy again (the column movers are transposed
        into the rows they sit in)."""
        self.check("mover_cascade")

    @pytest.mark.parametrize(
        "cfg", [CFG, *ABLATIONS.values()], ids=["default", *ABLATIONS]
    )
    def test_hand_built_moves_under_ablations(self, cfg):
        """Every hand-built move under every merge ablation: without
        bumps, a horizontal neighbour pair is two leaves, and only the
        row's own frozen mask keeps them from swapping."""
        for name in HAND_BUILT:
            self.check(name, cfg)

    def test_rebuild_resets_after_external_jump(self):
        """A version jump (two applies without update) falls back to a
        rebuild via the pipeline; the cache API itself stays coherent
        when primed from scratch."""
        from repro.core.patterns import MergeCache

        state = SwarmState({(0, 0), (1, 0), (2, 0), (1, 1)})
        cache = MergeCache(CFG)
        cache.update(state, set())  # unprimed update primes via rebuild
        assert_plans_agree(cache, state)

    def test_move_below_the_origin_rebuilds(self):
        """A robot that keeps landing left of and below every occupied
        cell reaches the cells below the mask origin; the move that
        lands there retires the masks, and the cache rebuilds around
        the new origin."""
        from repro.core.patterns import MergeCache
        from repro.grid.occupancy import MASK_MARGIN

        cells = [(x, y) for x in range(4) for y in range(3)]
        cells += [(0, -1), (-1, -1), (-1, -2)]
        state = SwarmState(cells)
        cache = MergeCache(CFG)
        cache.rebuild(state)
        masks = state.masks()
        for step in range(MASK_MARGIN + 1):
            x, y = min(state.cells, key=lambda c: (c[0] + c[1], c))
            state.apply_moves({(x, y): (x - 1, y - 1)})
            assert all(
                c == (x - 1, y - 1) or (c[0] >= x and c[1] >= y)
                for c in state.cells
            )
            cache.update(state, state.last_changed)
            assert_plans_agree(cache, state)
            assert (state.masks() is masks) == (step < MASK_MARGIN)
