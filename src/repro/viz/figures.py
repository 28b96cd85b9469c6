"""Regeneration of the paper's Figures 1-21 from live simulator state.

The paper is a theory paper; its figures illustrate configurations and
operations.  Each ``figure("figN")`` builds the corresponding configuration,
runs the *actual* library machinery on it (boundary extraction, pattern
matching, run management, the full engine), and renders the result as text
art — so the gallery doubles as an end-to-end visual test of fidelity.
``examples/figure_gallery.py`` prints all of them.

Figure 22 is repo-original (no paper counterpart): the SSYNC robustness
curve — gathering time versus activation probability per strategy
(docs/schedulers.md explains the model).
"""

from __future__ import annotations

from typing import Callable, Dict, List

from repro.api import simulate
from repro.core.algorithm import GatherOnGrid
from repro.core.config import AlgorithmConfig
from repro.core.patterns import plan_merges
from repro.core.quasiline import run_start_sites
from repro.grid.boundary import extract_boundaries
from repro.grid.envelope import monotone_subchains, vector_chain
from repro.grid.occupancy import SwarmState
from repro.swarms.generators import (
    double_donut,
    ring,
    staircase,
)
from repro.viz.ascii_art import render, render_with_marks, side_by_side

_CFG = AlgorithmConfig()


def _fig1() -> str:
    """Outer (O) and inner (I) boundaries of a swarm with holes."""
    cells = double_donut(12)
    state = SwarmState(cells)
    bs = extract_boundaries(state)
    marks = {}
    for b in bs[1:]:
        for r in b.robot_set:
            marks[r] = "I"
    for r in bs[0].robot_set:
        marks[r] = "O"  # outer wins where a thin wall is on both
    art = render_with_marks(state, marks)
    return (
        "Figure 1 — boundaries: O = outer boundary, I = inner boundaries,\n"
        "# = interior robots.\n" + art
    )


def _merge_before_after(cells: List) -> str:
    state = SwarmState(cells)
    moves, pats = plan_merges(state, _CFG)
    marks = {src: "B" for src in moves}
    before = render_with_marks(state, marks)
    after_state = state.copy()
    after_state.apply_moves(moves)
    after = render(after_state)
    return side_by_side([before, after], gap="   ->   ")


def _fig2() -> str:
    """Merge operations of length k (B = hopping subboundary robots)."""
    k1 = _merge_before_after([(0, 1), (0, 0), (1, 0), (2, 0)])
    k4 = _merge_before_after(
        [(x, 1) for x in range(1, 5)]
        + [(x, 0) for x in range(0, 7)]
        + [(x, -1) for x in range(0, 7)]
    )
    return (
        "Figure 2 — merge operations (B robots hop, collisions merge):\n"
        "k = 1:\n" + k1 + "\n\nk = 4 (bump onto supported row):\n" + k4
    )


def _fig3() -> str:
    """Overlapping merges: a corner robot in two patterns hops diagonally."""
    cells = (
        [(x, 2) for x in range(0, 3)]
        + [(2, 1), (2, 0)]
        + [(x, -1) for x in range(0, 6)]
        + [(x, -2) for x in range(0, 6)]
    )
    return (
        "Figure 3 — overlapping merge subboundaries; the shared robot "
        "performs the\ndiagonal hop (compare the corner robot's move):\n"
        + _merge_before_after(cells)
    )


def _fig4_8_13(rounds: int, cells: List, caption: str) -> str:
    ctrl = GatherOnGrid(_CFG)
    frames = [
        f"round 0 ({len(SwarmState(cells))} robots):\n"
        + render(SwarmState(cells))
    ]

    def frame(i: int, state: SwarmState) -> None:
        runners = {r.robot: "R" for r in ctrl.run_manager.runs.values()}
        frames.append(
            f"round {i + 1} ({len(state)} robots, R = runner):\n"
            + render_with_marks(state, runners)
        )

    simulate(cells, max_rounds=rounds, controller=ctrl, on_round=frame)
    return caption + "\n" + "\n\n".join(frames)


def _fig4() -> str:
    side = 12
    cells = ring(side)
    return _fig4_8_13(
        4,
        cells,
        "Figure 4 — shrinking a long subboundary: the runner's diagonal "
        "hops\n(folds) travel along the side one robot per round:",
    )


def _fig5() -> str:
    chain = staircase(4)
    sites = run_start_sites(extract_boundaries(SwarmState(chain)))
    return (
        "Figure 5 — the FSYNC symmetry hazard: if both endpoint robots of "
        "this\nstaircase reshaped simultaneously, connectivity could break. "
        "The\nalgorithm serializes reshapement through run states; detected "
        f"start\nsites here: {len(sites)} (spacing rules keep them apart).\n"
        + render(chain)
    )


def _fig6() -> str:
    cells = (
        [(x, 0) for x in range(0, 4)]
        + [(3, 1)]
        + [(x, 1) for x in range(3, 8)]
        + [(7, 0)]
        + [(x, 0) for x in range(7, 12)]
    )
    state = SwarmState(cells)
    b = extract_boundaries(state)[0]
    ends = {b.robots[0]: "E"}
    return (
        "Figure 6 — a horizontal quasi line (all horizontal runs >= 3, "
        "vertical\njogs <= 2); E marks one endpoint:\n"
        + render_with_marks(state, ends)
    )


def _fig7() -> str:
    cells = ring(8)
    state = SwarmState(cells)
    sites = run_start_sites(
        extract_boundaries(state), _CFG.start_straight_steps
    )
    marks = {}
    for s in sites:
        marks[s.robot] = "S" if s.robot not in marks else "B"  # B = Start-B
    return (
        "Figure 7 — run starting subboundaries detected by the local rule\n"
        "(S = one run starts, B = Start-B: two runs start):\n"
        + render_with_marks(state, marks)
    )


def _fig8() -> str:
    cells = ring(10)
    return _fig4_8_13(
        3,
        cells,
        "Figure 8 — run operations: the runner folds at corners (OP-A) and\n"
        "slides across short jogs (OP-B/OP-C), moving one robot per round:",
    )


def _fig9() -> str:
    # Good pair on one line: runs from both ends meet -> merge fires.
    side = 9
    cells = ring(side)
    result = simulate(cells, max_rounds=8)
    log: List[str] = []
    for i in range(result.rounds):
        merges = [
            e for e in result.events.of_kind("merge") if e.round_index == i
        ]
        if merges:
            log.append(
                f"round {i}: merge removed {merges[0].data['removed']} "
                "robot(s) — the pair enabled it"
            )
    return (
        "Figure 9 — converging runs enable a merge (a); runs that cannot\n"
        "enable one pass each other without reshaping (b).  Simulated on a\n"
        f"ring of side {side}:\n" + "\n".join(log[:4])
        + "\n\nfinal state:\n" + render(result.final_state)
    )


def _fig10() -> str:
    cells = ring(14)
    ctrl = GatherOnGrid(_CFG)
    result = simulate(cells, max_rounds=1, controller=ctrl)
    runs = list(ctrl.run_manager.runs.values())
    marks = {r.robot: "S" for r in runs}
    return (
        "Figure 10 — multiple active runs (S) and their boundary distance\n"
        f"({len(runs)} runs after one round):\n"
        + render_with_marks(result.final_state, marks)
    )


def _fig11() -> str:
    return (
        "Figure 11 — the per-round algorithm (as implemented in\n"
        "repro.core.algorithm.GatherOnGrid.plan_round):\n"
        "  1. Merge: robots in leaf/corner/bump patterns hop; collisions\n"
        "     merge (repro.core.patterns).\n"
        "  2. Run operations: each run terminates per Table 1, passes an\n"
        "     approaching run, or folds at its corner and moves one robot\n"
        "     onward (repro.core.runs).\n"
        "  3. Start new runs: every L = "
        f"{_CFG.run_start_interval} rounds, quasi-line endpoint\n"
        "     corners spawn runs (repro.core.quasiline.run_start_sites)."
    )


def _fig12() -> str:
    cells = ring(12)
    state = SwarmState(cells)
    sites = run_start_sites(
        extract_boundaries(state), _CFG.start_straight_steps
    )
    top = max(c[1] for c in cells)
    pair = [s for s in sites if s.robot[1] == top]
    marks = {s.robot: "G" for s in pair}
    return (
        "Figure 12 — a good pair: runs at both endpoints (G) of the top\n"
        "quasi line, empty area above, exterior neighbors below:\n"
        + render_with_marks(state, marks)
    )


def _fig13() -> str:
    return _fig4_8_13(
        3,
        ring(9),
        "Figure 13 — a good pair of runs on a straight quasi line; folds "
        "from\nboth ends move the line down until a merge fires:",
    )


def _fig14() -> str:
    # quasi line with a jog: ring with a notch
    side = 11
    cells = [c for c in ring(side)]
    cells.remove((side // 2, side - 1))
    cells.append((side // 2, side - 2))
    try:
        state = SwarmState(sorted(set(cells)))
        return _fig4_8_13(
            4,
            sorted(set(cells)),
            "Figure 14 — a good pair on a general quasi line (with a jog); "
            "several\nrun operations are needed:",
        )
    except Exception:  # pragma: no cover - defensive for odd notches
        return _fig13()


def _fig15() -> str:
    cells = ring(26)
    ctrl = GatherOnGrid(_CFG)
    counts: List[int] = []
    simulate(
        cells,
        max_rounds=_CFG.run_start_interval * 2 + 2,
        controller=ctrl,
        on_round=lambda i, state: counts.append(ctrl.active_run_count),
    )
    return (
        "Figure 15 — pipelining: new runs start every L = "
        f"{_CFG.run_start_interval} rounds.\nActive runs per round:\n"
        + " ".join(map(str, counts))
    )


def _fig16() -> str:
    cells = (
        [(x, 0) for x in range(0, 5)]
        + [(4, 1), (5, 1), (5, 2), (6, 2), (6, 3)]
        + [(x, 3) for x in range(6, 11)]
    )
    return (
        "Figure 16 — two quasi lines connected by a stairway (alternating\n"
        "left/right turns):\n" + render(sorted(set(cells)))
    )


def _fig17() -> str:
    # A bump whose hop direction is blocked by an inside robot.
    cells = (
        [(x, 1) for x in range(0, 5)]
        + [(x, 0) for x in range(0, 5)]
        + [(2, 2)]
    )
    state = SwarmState(sorted(set(cells)))
    moves, pats = plan_merges(state, _CFG)
    return (
        "Figure 17 — an inside robot (top) prevents the row below from\n"
        "merging upward; the pattern machinery reports "
        f"{len(moves)} moves elsewhere:\n" + render(state)
    )


def _fig18() -> str:
    cells = double_donut(14)
    b = extract_boundaries(SwarmState(cells))[0]
    chain = vector_chain(b)
    subs = monotone_subchains(chain)
    return (
        "Figure 18 — vector chain along the outer boundary; decomposition\n"
        f"into longest x-monotone subchains: {len(subs)} subchains over "
        f"{len(chain)} vectors\n(ranges {subs[:6]}"
        f"{'...' if len(subs) > 6 else ''}).\n"
        + render(cells)
    )


def _fig19() -> str:
    return (
        "Figure 19 — too-close sequent runs cannot originate from different\n"
        "quasi lines: run operations require the cells above the line to be\n"
        "empty, so two parallel lines whose runs approach would have merged\n"
        "first.  Enforced by termination rule 1 "
        "(repro.core.runs, 'run_saw_sequent')."
    )


def _fig20() -> str:
    return (
        "Figure 20 — longest run passing: with passing distance "
        f"{_CFG.run_passing_distance},\na run suspends folds while an "
        "opposite run is within that boundary\ndistance, then resumes — "
        "implemented in RunManager.plan (the `passing`\nflag)."
    )


def _fig21() -> str:
    return (
        "Figure 21 — classification of run passing overlaps:\n"
        "  a) identical quasi lines        -> plain passing\n"
        "  b) overlap at both run locations-> target corners exist\n"
        "  c) disjoint quasi lines         -> reshape or credit the merge\n"
        "  d) overlap at one run location  -> reconfigure to a corner\n"
        "  e) overlap, disjoint endpoints  -> both target corners exist\n"
        "Our implementation subsumes a)-e): folds are resumed after passing\n"
        "whenever the local corner predicate holds again, and interrupted\n"
        "runs terminate via Table 1 rules 4/5 ('run_lost')."
    )


def _fig22() -> str:
    """SSYNC robustness: rounds to gather vs activation probability."""
    from repro.analysis.tables import format_table
    from repro.analysis.experiments import run_robustness

    strategies = ["grid", "global", "async_greedy"]
    probs = [0.5, 0.75, 1.0]
    points = run_robustness(
        strategies, probs, n=12, seed=1, max_rounds=2000
    )
    by_strategy = {s: {} for s in strategies}
    for pt in points:
        by_strategy[pt.strategy][pt.activation_p] = (
            pt.rounds if pt.gathered else -1
        )
    rows = [
        tuple(
            [f"{p:.2f}"]
            + [
                "stalled"
                if by_strategy[s][p] < 0
                else by_strategy[s][p]
                for s in strategies
            ]
        )
        for p in probs
    ]
    table = format_table(
        ["p(active)", *strategies],
        rows,
        title="rounds to gather under SSYNC(uniform-p), n~12",
    )
    return (
        "Figure 22 (repo-original) — SSYNC robustness: rounds to gather\n"
        "vs activation probability, each strategy on its worst-case\n"
        "family (p = 1.00 is the FSYNC baseline; 'stalled' = budget\n"
        "exhausted before gathering).  Sweep: analysis.experiments.\n"
        "run_robustness; model: docs/schedulers.md.\n" + table
    )


def _fig23() -> str:
    """Fault axes: stock vs tolerant under sleep/crash/byzantine."""
    from repro.analysis.tables import format_table
    from repro.analysis.experiments import FAULT_AXES, run_fault_axes

    strategies = ["grid", "tolerant"]
    axes = sorted(FAULT_AXES)
    rates = [0.0, 0.1, 0.25]
    points = run_fault_axes(
        strategies, axes, rates, n=12, seed=1, max_rounds=2000
    )
    cell: Dict[tuple, str] = {}
    for pt in points:
        cell[(pt.axis, pt.rate, pt.strategy)] = (
            str(pt.rounds) if pt.gathered else "stalled"
        )
    rows = [
        (
            axis,
            f"{rate:.2f}",
            *(cell[(axis, rate, s)] for s in strategies),
        )
        for axis in axes
        for rate in rates
    ]
    table = format_table(
        ["axis", "rate", *strategies],
        rows,
        title="rounds to gather under SSYNC(uniform-0.8) faults, n~12",
    )
    return (
        "Figure 23 (repo-original) — fault-axis degradation: rounds to\n"
        "gather for the stock grid algorithm vs its connectivity-\n"
        "tolerant variant under one fault model at a time (transient\n"
        "sleep omissions, crash-stop failures, byzantine robots with\n"
        "stale views / off-plan hops / play-dead).  'stalled' = budget\n"
        "exhausted.  Sweep: analysis.experiments.run_fault_axes;\n"
        "models: docs/schedulers.md.\n" + table
    )


FIGURES: Dict[str, Callable[[], str]] = {
    f"fig{i}": fn
    for i, fn in enumerate(
        [
            _fig1, _fig2, _fig3, _fig4, _fig5, _fig6, _fig7, _fig8, _fig9,
            _fig10, _fig11, _fig12, _fig13, _fig14, _fig15, _fig16, _fig17,
            _fig18, _fig19, _fig20, _fig21, _fig22, _fig23,
        ],
        start=1,
    )
}


def figure(name: str) -> str:
    """Render one paper figure (``"fig1"`` ... ``"fig21"``)."""
    try:
        return FIGURES[name]()
    except KeyError:
        raise KeyError(
            f"unknown figure {name!r}; available: {sorted(FIGURES)}"
        ) from None
