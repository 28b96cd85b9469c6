"""Run states: the paper's reshapement mechanism (Sections 3.2, 3.3, 6).

A *run* is a token travelling along a boundary cycle at one robot per round
(Lemma 3.1) in a fixed direction.  The robot currently holding a run (the
*runner*) performs the reshapement: at a convex corner with a free
between-diagonal it *folds* inward — the concrete realization of the paper's
OP-A diagonal hop (successive folds propagate the corner along the quasi
line exactly like Fig. 13/14).  Where no fold applies the run *slides*
(paper OP-B/OP-C: "no diagonal hops until the target corner is reached").

Termination implements the paper's Table 1:

1. a sequent (same-direction) run ahead becomes visible;
2. the quasi line's endpoint lies just ahead (operationalized: a
   perpendicular aligned segment of >= 3 robots within the passing horizon —
   see DESIGN.md for why distant sight must not kill runs on short lines);
3. the runner was part of a merge operation;
4./5. the boundary changed under the run so its position can no longer be
   re-identified (merge reshaped the subboundary mid-operation);
6. the runner hopped onto an occupied cell (the resulting state-free merge
   reports through rule 3).

Run passing (Fig. 9 b / Section 6): two runs moving toward each other within
the run passing distance suspend folds and slide past one another.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    Dict,
    List,
    Mapping,
    NamedTuple,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.core.config import AlgorithmConfig
from repro.core.quasiline import StartSite
from repro.errors import InvariantError
from repro.grid.geometry import Cell, l1_distance
from repro.grid.ring import BoundaryRing, RingNode, RingSet


class RunLocation(NamedTuple):
    """Where a run sits this round: its contour (canonical list index +
    ring object) and the occurrence-head node of its robot on that ring.

    Node references are stable for the round (and across rounds while the
    side survives), replacing integer indices into rebuilt robot tuples.
    """

    b_idx: int
    ring: BoundaryRing
    node: RingNode


@dataclass(frozen=True)
class Run:
    """One run state (paper Section 3.2).

    ``robot`` holds the state; ``prev`` is the boundary robot behind it (the
    context used to re-identify the run's position after the swarm moved);
    ``direction`` is the boundary traversal direction (+1 = swarm-on-left
    orientation of :mod:`repro.grid.boundary`); ``axis`` is the quasi line
    axis fixed at start.
    """

    run_id: int
    robot: Cell
    prev: Cell
    direction: int
    axis: str  # "h" or "v"
    born_round: int


class _Planned(NamedTuple):
    """Internal per-round plan for one run (immutable, so a
    :class:`RunFork` can share it between commits)."""

    run: Run
    terminate: Optional[str] = None  # termination reason (event tag)
    fold_to: Optional[Cell] = None
    next_robot: Optional[Cell] = None  # pre-move cell of the next holder


class RunFork(NamedTuple):
    """An immutable snapshot of a :class:`RunManager`.

    ``planned`` holds the records of a planned but not yet finalized
    round (empty between rounds), ``runs`` the live runs in run-id
    order, ``next_id`` the id the next started run receives.  Taken
    after ``plan`` and restored before each ``finalize``, one planned
    round can be committed several times; taken between rounds, it is
    a checkpoint.
    """

    planned: Tuple[_Planned, ...]
    runs: Tuple[Run, ...]
    next_id: int


def _endpoint_in_window(window: Sequence[Cell], horizontal: bool) -> bool:
    """Termination rule 2 over a window of consecutive boundary robot
    cells ahead of the runner (window[0] is the runner's cell): True iff
    a perpendicular aligned segment of >= 3 robots appears."""
    perp_streak = 0
    a = window[0]
    for b in window[1:]:
        sx, sy = b[0] - a[0], b[1] - a[1]
        a = b
        if abs(sx) + abs(sy) != 1:
            perp_streak = 0  # diagonal (pinch) step: no information
            continue
        perp = (sx == 0) if horizontal else (sy == 0)
        if perp:
            perp_streak += 1
            if perp_streak >= 2:  # two steps = three aligned robots
                return True
        else:
            perp_streak = 0
    return False


class RunManager:
    """Owns all live runs; plans and finalizes their per-round behavior."""

    def __init__(self, cfg: AlgorithmConfig) -> None:
        self.cfg = cfg
        self.runs: Dict[int, Run] = {}
        self._next_id = 0
        self._planned: List[_Planned] = []

    # ------------------------------------------------------------------
    def fork(self) -> RunFork:
        """The manager's whole state as an immutable value."""
        runs = self.runs
        return RunFork(
            tuple(self._planned),
            tuple([runs[rid] for rid in sorted(runs)]),
            self._next_id,
        )

    def restore(self, fork: RunFork) -> None:
        """Reset the manager to ``fork``.  The containers are fresh, so
        nothing done after this call can alter ``fork``."""
        self._planned = list(fork.planned)
        self.runs = {run.run_id: run for run in fork.runs}
        self._next_id = fork.next_id

    @property
    def active_run_count(self) -> int:
        return len(self.runs)

    def runner_cells(self) -> Set[Cell]:
        return {r.robot for r in self.runs.values()}

    # ------------------------------------------------------------------
    # Starting runs (paper Fig. 7 + Figure 11 step 3)
    # ------------------------------------------------------------------
    def start_runs(
        self,
        contours: RingSet,
        sites: Sequence[StartSite],
        round_index: int,
        located: Mapping[int, RunLocation],
    ) -> List[Run]:
        """Create runs at start sites that are not crowded by live runs.

        The paper starts runs unconditionally and lets termination rule 1
        clean up; we skip sites within viewing distance (along the
        boundary) of an existing run — same spacing invariant, fewer
        stillborn runs.  ``located`` maps live run ids to their
        ``(boundary_index, position)`` this round.

        On *short* contours — cycle length at most ``2 * viewing_radius +
        2``, where every site is within viewing distance of every other —
        the along-boundary spacing filter is disabled, approximating the
        paper's unconditional starts (the runner-cell adjacency guard
        below still applies).  There the filter starves the
        contour down to one run per batch, and since opposite runs *pass*
        rather than collide, a filtered tiny ring can circulate forever (a
        livelock; the seed implementation only escaped it through
        accidental hash-order entropy in its boundary enumeration,
        whereas this implementation's canonical boundary enumeration made
        it deterministic).  Unconditional starts restore the paper's
        progress mechanism — opposing runs reshape the contour under each
        other until merges fire — and termination rule 1 cleans up the
        surplus, exactly as the paper intends.
        """
        rings = contours.rings
        located_nodes: Dict[int, List[RingNode]] = {}
        for loc in located.values():
            located_nodes.setdefault(loc.b_idx, []).append(loc.node)
        # Spacing state, resolved lazily per contour because this runs
        # only every ``run_start_interval`` rounds and only for contours
        # whose sites pass through the spacing filter.  Two equivalent
        # representations:
        #
        # * full-scan sites carry canonical cycle positions — cyclic
        #   distances against the located runs' positions (one ring walk
        #   per contour via ``positions_map``);
        # * index sites carry head *nodes* — the crowded neighborhoods
        #   (all heads within viewing distance of a located run, walked
        #   locally: O(runs x radius), never O(contour)) are precomputed
        #   and membership replaces the distance comparison.  The walks
        #   mark heads at distance 1..R, so the "distance 0 is the same
        #   robot" admission below is preserved verbatim.
        occupied_positions: Dict[int, List[int]] = {}
        crowded_heads: Dict[int, set] = {}
        radius = self.cfg.viewing_radius

        def positions_for(b_idx: int) -> List[int]:
            lst = occupied_positions.get(b_idx)
            if lst is None:
                nodes = located_nodes.get(b_idx, ())
                if nodes:
                    pm = rings[b_idx].positions_map()
                    lst = [pm[nd] for nd in nodes]
                else:
                    lst = []
                occupied_positions[b_idx] = lst
            return lst

        def mark_crowded(crowd: set, ring, node: RingNode) -> None:
            for h in ring.walk_heads(node, 1, radius):
                crowd.add(id(h))
            for h in ring.walk_heads(node, -1, radius):
                crowd.add(id(h))

        def crowded_for(b_idx: int) -> set:
            crowd = crowded_heads.get(b_idx)
            if crowd is None:
                crowd = set()
                ring = rings[b_idx]
                for nd in located_nodes.get(b_idx, ()):
                    mark_crowded(crowd, ring, nd)
                crowded_heads[b_idx] = crowd
            return crowd

        existing_keys = {
            (r.robot, r.direction) for r in self.runs.values()
        }
        # Runner cells across *all* contours: a start right next to a live
        # runner (e.g. an inner-boundary site hugging an outer corner) would
        # deadlock the anchor guard of `_fold_target`.
        runner_cells = self.runner_cells()
        started: List[Run] = []
        short = 2 * self.cfg.viewing_radius + 2
        for site in sorted(
            sites, key=lambda s: (s.boundary_index, s.position, s.direction)
        ):
            if (site.robot, site.direction) in existing_keys:
                continue
            n = len(rings[site.boundary_index])
            too_close = False
            if n > short:
                if site.node is not None:
                    too_close = id(site.node) in crowded_for(
                        site.boundary_index
                    )
                else:
                    for pos in positions_for(site.boundary_index):
                        dist = min(
                            (pos - site.position) % n,
                            (site.position - pos) % n,
                        )
                        # distance 0 is the same robot: the paper's
                        # Start-B places two runs (opposite directions)
                        # on one endpoint robot.
                        if 0 < dist <= self.cfg.viewing_radius:
                            too_close = True
                            break
            if not too_close:
                for rc in runner_cells:
                    if rc != site.robot and l1_distance(rc, site.robot) <= 2:
                        too_close = True
                        break
            if too_close:
                continue
            prev = site.prev
            if prev is None:  # always filled by run_start_sites
                raise InvariantError(
                    f"start site at {site.robot} has no predecessor"
                )
            axis = "h" if site.stretch_dir[1] == 0 else "v"
            run = Run(
                run_id=self._next_id,
                robot=site.robot,
                prev=prev,
                direction=site.direction,
                axis=axis,
                born_round=round_index,
            )
            self._next_id += 1
            self.runs[run.run_id] = run
            existing_keys.add((run.robot, run.direction))
            runner_cells.add(run.robot)
            if n > short:
                # feed the spacing filter of later sites on this contour
                # (short contours never read the state — skip the walk)
                if site.node is not None:
                    mark_crowded(
                        crowded_for(site.boundary_index),
                        rings[site.boundary_index],
                        site.node,
                    )
                else:
                    positions_for(site.boundary_index).append(site.position)
            started.append(run)
        return started

    # ------------------------------------------------------------------
    # Locating runs on the current boundaries
    # ------------------------------------------------------------------
    def locate(
        self, contours: RingSet
    ) -> Tuple[Dict[int, RunLocation], List[int]]:
        """Match each run to a :class:`RunLocation` (contour + node).

        A run is matched where its robot appears with its remembered
        predecessor behind it; unmatched runs are returned as lost (the
        subboundary changed shape under them — Table 1 conditions 4/5).

        Candidate occurrences come straight from the ring set's side-node
        index (O(1) per run), so contours the incremental pipeline kept or
        spliced across rounds cost nothing to re-index.  The winner is the
        minimum over ``(score, contour index, cycle position)`` — exactly
        the old first-match semantics over canonically ordered boundary
        tuples; the cycle position is only computed (one ring walk) in the
        rare case of a same-score tie between two occurrences of the
        robot on one contour (1-thick spurs, where a robot's occurrences
        are *not* contiguous on the cycle).
        """
        rings = contours.rings
        ring_index = {id(r): i for i, r in enumerate(rings)}
        located: Dict[int, RunLocation] = {}
        lost: List[int] = []
        for rid in sorted(self.runs):
            run = self.runs[rid]
            # Graded matching: the remembered predecessor may have left this
            # contour (a fold into a hole parks the folded robot in a notch
            # whose free sides face the inner boundary), so fall back to
            # "predecessor within L1 distance 2" before declaring the run
            # lost (Table 1 conditions 4/5).
            cands: List[Tuple[int, int, BoundaryRing, RingNode]] = []
            seen: Set[int] = set()
            robot = run.robot
            prev_cell = run.prev
            direction = run.direction
            for node in contours.nodes_at(robot):
                ring = node.ring
                if ring is None:
                    raise InvariantError(
                        f"contour node at {robot} detached from its ring"
                    )
                if len(ring) < 2:
                    continue  # degenerate cycle (fewer than 2 robots)
                # occurrence head + the robot behind, inlined (hot loop)
                cell = node.cell
                head = node
                while head.prev.cell == cell:
                    head = head.prev
                if id(head) in seen:
                    continue
                seen.add(id(head))
                if direction == 1:
                    # previous occurrence's cell: any node of it will do
                    behind = head.prev.cell
                else:
                    bnode = head.next
                    while bnode.cell == cell:
                        bnode = bnode.next
                    behind = bnode.cell
                if behind == prev_cell:
                    score = 0
                elif (
                    abs(behind[0] - prev_cell[0])
                    + abs(behind[1] - prev_cell[1])
                    <= 2
                ):
                    score = 1
                else:
                    continue
                cands.append((score, ring_index[id(ring)], ring, head))
            if not cands:
                lost.append(rid)
                continue
            best_key = min((c[0], c[1]) for c in cands)
            ties = [c for c in cands if (c[0], c[1]) == best_key]
            if len(ties) > 1:
                pm = ties[0][2].positions_map()
                ties.sort(key=lambda c: pm[c[3]])
            score, b_idx, ring, head = ties[0]
            located[rid] = RunLocation(b_idx, ring, head)
        return located, lost

    # ------------------------------------------------------------------
    # Per-round planning (paper Figure 11 step 2)
    # ------------------------------------------------------------------
    def plan(
        self,
        contours: RingSet,
        occupied: Set[Cell],
        merge_moves: Mapping[Cell, Cell],
        located: Mapping[int, RunLocation],
        lost: Sequence[int],
        round_index: int = -1,
    ) -> Dict[Cell, Cell]:
        """Decide every run's action; returns the runner fold moves.

        Three phases: build the round's shared read-only context, plan
        each run against it (:meth:`_plan_one` is a pure function of
        that context, so the plan never depends on the order runs are
        visited in), and reduce the results deterministically in run-id
        order.  The only cross-run coupling — two runs sharing a robot
        cell, where the first by run id claims the fold — lives in the
        reduce.
        """
        self._planned = []
        run_moves: Dict[Cell, Cell] = {}

        # Shared context: occurrence nodes of all located runs (for
        # rules 1 and passing), per-contour run counts, runner cells.
        at_node: Dict[int, List[int]] = {}  # id(node) -> run ids
        runs_per_boundary: Dict[int, int] = {}
        for rid, loc in located.items():
            at_node.setdefault(id(loc.node), []).append(rid)
            runs_per_boundary[loc.b_idx] = (
                runs_per_boundary.get(loc.b_idx, 0) + 1
            )
        runner_cells = self.runner_cells()
        lost_set = set(lost)
        ctx = (
            occupied,
            merge_moves,
            located,
            lost_set,
            round_index,
            at_node,
            runs_per_boundary,
            runner_cells,
        )
        results = [self._plan_one(rid, *ctx) for rid in sorted(self.runs)]

        # Deterministic reduce in run-id order: first claim on a shared
        # robot cell wins the fold (two runs can hold one robot).
        for planned, fold in results:
            if fold is not None and planned.run.robot not in run_moves:
                planned = planned._replace(fold_to=fold)
                run_moves[planned.run.robot] = fold
            self._planned.append(planned)
        return run_moves

    def _plan_one(
        self,
        rid: int,
        occupied: Set[Cell],
        merge_moves: Mapping[Cell, Cell],
        located: Mapping[int, RunLocation],
        lost: Set[int],
        round_index: int,
        at_node: Mapping[int, List[int]],
        runs_per_boundary: Mapping[int, int],
        runner_cells: Set[Cell],
    ) -> Tuple[_Planned, Optional[Cell]]:
        """Plan one run against the round's shared read-only context.

        Returns the :class:`_Planned` record and the run's fold
        *candidate* (``None`` when it terminates, passes, or has no
        fold); the caller assigns fold claims in run-id order.
        """
        cfg = self.cfg
        run = self.runs[rid]
        if rid in lost:
            return _Planned(run, terminate="run_lost"), None
        b_idx, ring, node = located[rid]
        n = len(ring)

        # Rule 3 / 6: the runner takes part in a merge this round.
        if run.robot in merge_moves:
            return _Planned(run, terminate="run_merged"), None

        # A freshly started run always performs its start hop (the
        # paper's "start runstate": generate the state, hop, hand the
        # state on) before any visibility-based stop rule applies.
        fresh = run.born_round == round_index

        # Occurrence heads ahead of the runner, fetched in one batched
        # ring walk shared by rule 1, rule 2, and the handover target.
        probing = not fresh and runs_per_boundary.get(b_idx, 0) > 1
        probe_len = min(cfg.viewing_radius, n - 1) if probing else 0
        horizon = (
            min(cfg.run_passing_distance + 1, n - 2) if not fresh else 0
        )
        needed = max(1, probe_len, horizon + 1 if horizon >= 1 else 0)
        heads = ring.walk_heads(node, run.direction, needed)

        # Rule 1: sequent run visible ahead -> the run *behind* stops
        # (paper Table 1.1).  On a closed contour "behind" means the
        # gap ahead of us is the smaller arc; two runs chasing each
        # other at equal distance (opposite sides of a ring) are not
        # sequent and must both survive.
        passing = False
        stop = False
        # Probing is only meaningful when another run shares this
        # contour — the common single-run case skips the scan.
        for k in range(1, probe_len + 1):
            for other_id in at_node.get(id(heads[k - 1]), ()):
                other = self.runs[other_id]
                if other_id == rid:
                    continue
                if other.direction == run.direction:
                    if 2 * k < n:  # we are genuinely the follower
                        stop = True
                        break
                elif k <= cfg.run_passing_distance:
                    passing = True
            if stop:
                break
        if stop:
            return _Planned(run, terminate="run_saw_sequent"), None

        # Rule 2: quasi-line endpoint just ahead -> stop (see module
        # docstring for the operationalization; degenerate contours
        # leave no room for a 3-robot segment and never match).
        if horizon >= 1:
            window = [node.cell] + [h.cell for h in heads[: horizon + 1]]
            if _endpoint_in_window(window, run.axis == "h"):
                return _Planned(run, terminate="run_saw_endpoint"), None

        planned = _Planned(run, next_robot=heads[0].cell)
        fold = None
        if not passing:
            fold = self._fold_target(
                occupied, run.robot, merge_moves, runner_cells
            )
        return planned, fold

    def _endpoint_ahead(
        self, robots: Tuple[Cell, ...], pos: int, run: Run
    ) -> bool:
        """Rule 2 over an explicit robot cycle (tuple form, kept for
        tests/analysis; the planner walks the ring via
        :meth:`_endpoint_ahead_ring`)."""
        n = len(robots)
        horizon = min(self.cfg.run_passing_distance + 1, n - 2)
        if horizon < 1:
            # Degenerate contour (n <= 2): the clamped horizon leaves no
            # room for a 3-robot aligned segment (two steps), and the
            # probe indices below would wrap around the whole cycle.
            return False
        dirn = run.direction
        window = [robots[pos % n]] + [
            robots[(pos + dirn * (k + 1)) % n] for k in range(horizon + 1)
        ]
        return _endpoint_in_window(window, run.axis == "h")

    def _fold_target(
        self,
        occupied: Set[Cell],
        robot: Cell,
        merge_moves: Mapping[Cell, Cell],
        runner_cells: Set[Cell],
    ) -> Optional[Cell]:
        """OP-A reshapement: convex corner fold toward the between-diagonal.

        Guards (all locally checkable):

        * the runner has exactly two, perpendicular, occupied 4-neighbors
          (a convex corner) and the between-diagonal is free;
        * both anchor neighbors are stationary this round: not part of a
          merge move and not themselves runners (who might fold away).

        With stationary anchors, *any* set of simultaneous folds preserves
        connectivity: a degree-2 mover's only graph edges go to its two
        anchors, and the fold keeps both adjacencies — this is how the
        paper's Fig. 5 symmetry hazard is excluded (there, the hopping
        robots lost an anchor adjacency).

        Checks are inlined (no geometry helpers): this runs for every
        live run every round.
        """
        x, y = robot
        nbrs = []
        if (x + 1, y) in occupied:
            nbrs.append((x + 1, y))
        if (x, y + 1) in occupied:
            nbrs.append((x, y + 1))
        if (x - 1, y) in occupied:
            nbrs.append((x - 1, y))
        if (x, y - 1) in occupied:
            nbrs.append((x, y - 1))
        if len(nbrs) != 2:
            return None
        n0, n1 = nbrs
        if n0[0] == n1[0] or n0[1] == n1[1]:
            return None  # collinear (opposite) neighbors, not a corner
        target = (n0[0] + n1[0] - x, n0[1] + n1[1] - y)
        if target in occupied:
            return None  # occupied diagonal = state-free corner merge's job
        if n0 in merge_moves or n1 in merge_moves:
            return None
        if n0 in runner_cells or n1 in runner_cells:
            return None
        return target

    # ------------------------------------------------------------------
    # Finalization after the engine applied the round's moves
    # ------------------------------------------------------------------
    def finalize(
        self,
        applied_moves: Mapping[Cell, Cell],
        occupied_after: Set[Cell],
    ) -> List[Tuple[Run, Optional[str]]]:
        """Advance surviving runs and drop terminated ones.

        Returns ``(run, termination_reason)`` records for event logging
        (reason ``None`` = advanced normally).
        """
        outcome: List[Tuple[Run, Optional[str]]] = []
        new_runs: Dict[int, Run] = {}
        landing_cells = set(applied_moves.values())
        for planned in self._planned:
            run = planned.run
            if planned.terminate is not None:
                outcome.append((run, planned.terminate))
                continue
            # Rule 3 (passive): somebody merged onto the stationary runner.
            if planned.fold_to is None and run.robot in landing_cells:
                outcome.append((run, "run_merged"))
                continue
            if planned.next_robot is None:
                raise InvariantError(
                    f"planned move for run {run.run_id} names no "
                    f"successor robot"
                )
            holder_after = (
                planned.fold_to
                if planned.fold_to is not None
                else applied_moves.get(run.robot, run.robot)
            )
            next_after = applied_moves.get(
                planned.next_robot, planned.next_robot
            )
            if next_after not in occupied_after:
                outcome.append((run, "run_lost"))
                continue
            if next_after == holder_after:
                # the next robot merged into the runner's cell
                outcome.append((run, "run_merged"))
                continue
            # dataclasses.replace is measurably slow in this per-run hot
            # loop; construct the advanced run directly.
            advanced = Run(
                run_id=run.run_id,
                robot=next_after,
                prev=holder_after,
                direction=run.direction,
                axis=run.axis,
                born_round=run.born_round,
            )
            new_runs[run.run_id] = advanced
            outcome.append((advanced, None))
        self.runs = new_runs
        self._planned = []
        return outcome
