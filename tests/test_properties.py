"""Property-based tests (hypothesis) for the core invariants.

Strategies build random *connected* swarms by seeded growth; the properties
are the paper's own guarantees:

1. connectivity is preserved by every round (checked by the engine);
2. the robot count never increases;
3. gathering completes within the linear budget;
4. the algorithm is deterministic;
5. merge decisions are locally computable within the viewing radius;
6. mergeless non-gathered swarms always offer run start sites (Lemma 1).
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis.progress import find_progress_sites, is_mergeless
from repro.api import simulate
from repro.core.algorithm import GatherOnGrid, gather
from repro.core.config import AlgorithmConfig
from repro.core.patterns import merge_move_for, plan_merges
from repro.core.view import LocalView
from repro.engine.scheduler import RoundEngine
from repro.engine.termination import run_engine
from repro.grid.connectivity import is_connected
from repro.grid.occupancy import SwarmState
from repro.swarms.generators import random_blob, random_tree

CFG = AlgorithmConfig()

# -- strategies ---------------------------------------------------------
connected_swarms = st.builds(
    lambda n, seed, kind: (
        random_blob(n, seed) if kind else random_tree(n, seed)
    ),
    st.integers(min_value=2, max_value=60),
    st.integers(min_value=0, max_value=10_000),
    st.booleans(),
)

SLOW = settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@SLOW
@given(cells=connected_swarms)
def test_gathers_with_connectivity_every_round(cells):
    result = gather(cells, check_connectivity=True)
    assert result.gathered


@SLOW
@given(cells=connected_swarms)
def test_robot_count_monotone_nonincreasing(cells):
    counts = []
    run_engine(
        RoundEngine(SwarmState(cells), GatherOnGrid()),
        on_round=lambda i, s: counts.append(len(s)),
    )
    assert all(a >= b for a, b in zip(counts, counts[1:]))


@SLOW
@given(cells=connected_swarms)
def test_linear_round_budget(cells):
    n = len(cells)
    result = gather(cells, max_rounds=8 * n + 40)
    assert result.gathered, f"exceeded 8n+40 rounds for n={n}"


@settings(max_examples=20, deadline=None)
@given(cells=connected_swarms)
def test_determinism(cells):
    h1, h2 = [], []
    for h in (h1, h2):
        run_engine(
            RoundEngine(SwarmState(cells), GatherOnGrid()),
            max_rounds=60,
            on_round=lambda i, s, hh=h: hh.append(s.frozen()),
        )
    assert h1 == h2


@settings(max_examples=25, deadline=None)
@given(cells=connected_swarms)
def test_merge_decisions_are_local(cells):
    """Global planner == per-robot local recomputation, and the local
    recomputation never touches cells beyond the viewing radius (LocalView
    raises if it does)."""
    state = SwarmState(cells)
    moves, _ = plan_merges(state, CFG)
    for robot in cells:
        view = LocalView(state, robot, CFG.viewing_radius)
        assert merge_move_for(view, robot, CFG) == moves.get(robot)


@settings(max_examples=25, deadline=None)
@given(cells=connected_swarms)
def test_single_round_preserves_connectivity(cells):
    state = SwarmState(cells)
    ctrl = GatherOnGrid()
    moves = ctrl.plan_round(state, 0)
    state.apply_moves(moves)
    assert is_connected(state.cells)


@settings(max_examples=30, deadline=None)
@given(cells=connected_swarms)
def test_mergeless_swarms_offer_progress(cells):
    """Lemma 1: a mergeless, non-gathered swarm has run start sites."""
    state = SwarmState(cells)
    if state.is_gathered():
        return
    if is_mergeless(state, CFG):
        assert find_progress_sites(state, CFG), (
            "mergeless non-gathered swarm with no start sites "
            "(Lemma 1 violated)"
        )


@settings(max_examples=20, deadline=None)
@given(
    n=st.integers(min_value=2, max_value=40),
    seed=st.integers(min_value=0, max_value=1000),
)
def test_async_baseline_gathers(n, seed):
    result = simulate(
        random_blob(n, seed), strategy="async_greedy", seed=seed
    )
    assert result.gathered


@settings(max_examples=30, deadline=None)
@given(cells=connected_swarms)
def test_boundary_contours_partition_all_sides(cells):
    """Contour tracing is complete and exact: every (occupied cell, free
    neighbor) side appears on exactly one contour, consecutive contour
    robots are 8-adjacent, and exactly one contour is outer."""
    from repro.grid.boundary import extract_boundaries
    from repro.grid.geometry import DIRECTIONS4, add, chebyshev

    state = SwarmState(cells)
    occ = state.cells
    expected = {
        (c, d) for c in occ for d in DIRECTIONS4 if add(c, d) not in occ
    }
    seen = []
    boundaries = extract_boundaries(state)
    assert sum(b.is_outer for b in boundaries) == 1
    for b in boundaries:
        seen.extend(b.sides)
        n = len(b.robots)
        for i in range(n):
            assert chebyshev(b.robots[i], b.robots[(i + 1) % n]) <= 1
    assert len(seen) == len(expected)
    assert set(seen) == expected


@settings(max_examples=20, deadline=None)
@given(
    cells=st.builds(
        lambda n, seed: random_blob(n, seed),
        st.integers(min_value=3, max_value=14),
        st.integers(min_value=0, max_value=10_000),
    ),
    sched_seed=st.integers(min_value=0, max_value=10_000),
    p=st.floats(min_value=0.2, max_value=0.9),
)
def test_scripted_schedules_preserve_core_invariants(cells, sched_seed, p):
    """Schedule fuzz: under an arbitrary activation script the robot
    count never increases, and a connectivity violation ends the run
    that same round — as ``connectivity_lost``, or as ``gathered`` when
    the split state still fits the gathering box (two diagonal robots
    in a 2x2 bounding box; the engine checks gathering first)."""
    import random

    from repro.trace.replay import replay_schedule

    rng = random.Random(sched_seed)
    schedule = [
        tuple(t for t in range(len(cells)) if rng.random() < p)
        for _ in range(24)
    ]
    counts = []
    result = replay_schedule(
        sorted(cells),
        schedule,
        max_rounds=150,
        on_round=lambda i, s: counts.append(len(s)),
    )
    assert all(a >= b for a, b in zip(counts, counts[1:]))
    violations = result.events.of_kind("connectivity_violation")
    lost = result.events.of_kind("connectivity_lost")
    assert len(violations) <= 1
    assert len(lost) <= len(violations)
    if violations:
        # the run stops at the violation round; gathering wins the
        # terminal when both predicates hold, otherwise the violation
        # must surface as the connectivity_lost terminal
        assert result.rounds == violations[0].round_index + 1
        if result.gathered:
            assert not lost
        else:
            assert len(lost) == 1
    else:
        assert not lost


@settings(max_examples=15, deadline=None)
@given(
    cells=st.builds(
        lambda n, seed: random_blob(n, seed),
        st.integers(min_value=3, max_value=14),
        st.integers(min_value=0, max_value=10_000),
    )
)
def test_full_activation_script_is_fsync(cells):
    """The all-tokens script is FSYNC: identical round count and
    identical per-round cells, for any connected seed."""
    from repro.trace.replay import replay_schedule

    cells = sorted(cells)
    frames_f, frames_s = [], []
    fsync = run_engine(
        RoundEngine(SwarmState(cells), GatherOnGrid()),
        max_rounds=150,
        on_round=lambda i, s: frames_f.append(tuple(sorted(s.cells))),
    )
    schedule = [tuple(range(len(cells)))] * fsync.rounds
    scripted = replay_schedule(
        cells,
        schedule,
        max_rounds=150,
        on_round=lambda i, s: frames_s.append(tuple(sorted(s.cells))),
    )
    assert scripted.gathered == fsync.gathered
    assert scripted.rounds == fsync.rounds
    assert frames_s == frames_f


@settings(max_examples=25, deadline=None)
@given(cells=connected_swarms)
def test_trace_replay_roundtrip(cells):
    """Recording a simulation and replaying it reproduces every round."""
    import io

    from repro.trace.recorder import TraceRecorder, load_trace
    from repro.trace.replay import verify_trace

    buf = io.StringIO()
    run_engine(
        RoundEngine(SwarmState(cells), GatherOnGrid()),
        max_rounds=25,
        on_round=TraceRecorder(buf),
    )
    rows = load_trace(buf.getvalue().splitlines())
    assert verify_trace(cells, rows)
