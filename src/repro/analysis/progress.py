"""Progress instrumentation mirroring the paper's proof machinery.

These functions are *analysis-only* (the distributed algorithm never calls
them): they let tests and figures verify the paper's structural claims —

* :func:`is_mergeless` — the global "Mergeless Swarm" predicate
  (Section 3.2);
* :func:`mergeless_structure` — the Lemma 1 structure theorem: in a
  mergeless swarm the outer boundary decomposes into quasi lines and
  stairways;
* :func:`find_progress_sites` — Lemma 1's existence claim: a mergeless
  swarm always offers run start sites forming a good pair.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Set

from repro.core.config import AlgorithmConfig
from repro.core.patterns import plan_merges
from repro.core.quasiline import StartSite, boundary_segments, run_start_sites
from repro.grid.boundary import extract_boundaries
from repro.grid.occupancy import SwarmState


def is_mergeless(
    state: SwarmState | Set, cfg: AlgorithmConfig | None = None
) -> bool:
    """True when no merge pattern fires anywhere in the swarm."""
    cfg = cfg or AlgorithmConfig()
    swarm = state if isinstance(state, SwarmState) else SwarmState(state)
    moves, _ = plan_merges(swarm, cfg)
    return not moves


@dataclass(frozen=True)
class StructureReport:
    """Decomposition statistics of the outer boundary (Lemma 1)."""

    aligned_segments: int
    long_segments: int  # length >= 3 (quasi-line material)
    stair_segments: int  # length == 2 (stairway material)
    max_perpendicular_run: int


def mergeless_structure(state: SwarmState | Set) -> StructureReport:
    """Segment statistics of the outer boundary.

    The paper's Lemma 1 proof shows a mergeless boundary consists of quasi
    lines (aligned runs >= 3 joined by jogs <= 2) and stairways (alternating
    2-runs); tests assert that mergeless swarms indeed contain no aligned
    run that a merge pattern should have consumed.
    """
    swarm = state if isinstance(state, SwarmState) else SwarmState(state)
    outer = extract_boundaries(swarm)[0]
    segs = boundary_segments(outer)
    if not segs:
        return StructureReport(0, 0, 0, 0)
    long_segs = sum(1 for _, _, ln in segs if ln >= 3)
    stair_segs = sum(1 for _, _, ln in segs if ln == 2)
    max_run = max(ln for _, _, ln in segs)
    return StructureReport(
        aligned_segments=len(segs),
        long_segments=long_segs,
        stair_segments=stair_segs,
        max_perpendicular_run=max_run,
    )


@dataclass(frozen=True)
class ProgressAudit:
    """Empirical check of the paper's Theorem 1 accounting on one run.

    Lemma 1 says: every ``L`` rounds either a merge has been performed or a
    new progress pair (run) has started.  Theorem 1 then bounds the number
    of ``L``-windows by ``2 n``.  ``audit_result`` replays a simulation's
    event stream against exactly that bookkeeping.
    """

    windows: int
    windows_with_merge: int
    windows_with_start: int
    idle_windows: int  # neither merge nor run start: Lemma 1 violations
    max_run_lifetime: int
    runs_started: int
    runs_stopped: int

    @property
    def lemma1_holds(self) -> bool:
        return self.idle_windows == 0

    def theorem1_window_bound(self, n_robots: int) -> bool:
        """Theorem 1: at most ~2n windows of length L are needed."""
        return self.windows <= 2 * n_robots + 2


def audit_result(result, cfg: AlgorithmConfig | None = None) -> ProgressAudit:
    """Build a :class:`ProgressAudit` from a grid run's ``RunResult``.

    ``result`` must come from a grid-strategy run, e.g.
    :func:`repro.core.algorithm.gather` (its events carry ``merge`` /
    ``run_start`` / ``run_stop`` records).
    """
    cfg = cfg or AlgorithmConfig()
    L = cfg.run_start_interval
    merges = set(result.events.rounds_with("merge"))
    starts = set(result.events.rounds_with("run_start"))

    total_rounds = result.rounds
    windows = 0
    with_merge = 0
    with_start = 0
    idle = 0
    for w0 in range(0, max(total_rounds, 1), L):
        w1 = min(w0 + L, total_rounds)
        windows += 1
        has_merge = any(r in merges for r in range(w0, w1))
        has_start = any(r in starts for r in range(w0, w1))
        if has_merge:
            with_merge += 1
        if has_start:
            with_start += 1
        if not has_merge and not has_start and w1 - w0 == L:
            idle += 1

    born: dict = {}
    lifetime = 0
    stopped = 0
    for e in result.events:
        if e.kind == "run_start":
            born[e.data["run_id"]] = e.round_index
        elif e.kind == "run_stop":
            stopped += 1
            b = born.get(e.data["run_id"])
            if b is not None:
                lifetime = max(lifetime, e.round_index - b)
    return ProgressAudit(
        windows=windows,
        windows_with_merge=with_merge,
        windows_with_start=with_start,
        idle_windows=idle,
        max_run_lifetime=lifetime,
        runs_started=len(born),
        runs_stopped=stopped,
    )


def find_progress_sites(
    state: SwarmState | Set, cfg: AlgorithmConfig | None = None
) -> List[StartSite]:
    """Run start sites available right now (Lemma 1's progress pairs).

    For a mergeless, non-gathered swarm this must be non-empty — that is
    exactly the paper's progress guarantee, and the property tests assert
    it on every mergeless state they can construct.
    """
    cfg = cfg or AlgorithmConfig()
    swarm = state if isinstance(state, SwarmState) else SwarmState(state)
    boundaries = extract_boundaries(swarm)
    return run_start_sites(boundaries, cfg.start_straight_steps)
