"""The activation-subset branching driver.

SSYNC nondeterminism is exactly the choice of *which planned movers
act* each round: robots without a planned move contribute nothing to the
state whether activated or not (the engine filters the round's plan by
the activated cells, and activation streaks never feed a planning
decision), so the adversary's whole power at a round with ``m`` planned
movers is the ``2^m`` subsets of those movers.  The explorer forks the
round across that subset lattice, reduces every resulting state to its
canonical key (:mod:`repro.explore.canonical`), and grows the deduped
state DAG breadth-first — cycles simply close back onto known nodes, so
exploration terminates exactly when the reachable closure is built.

Each branch is the engine's own round, split at the controller
protocol: ``plan_round`` once per node (run starts and freshness behave
correctly because the phase is part of the node key), then per subset
``apply_moves`` of the chosen planned moves and ``notify_applied`` (the
run table advances *as if the plan had executed* — the documented
desynchronization that lets partial activation break connectivity).

A planned round is a pure function of the node key, the strategy and
the planning config, so it is computed once and kept in a plan memo:
the moves, the sorted movers, and a :class:`~repro.core.runs.RunFork`
of the run manager taken right after planning.  Every subset branch
restores that fork and commits on a fresh copy of the node's cells.
:func:`~repro.analysis.certification.run_certification` shares one
memo across all seed shapes of a sweep, whose DAGs overlap heavily, so
each distinct state is planned once per sweep.  One controller serves
a whole :func:`explore` call, with a null event sink.

Modes: ``exhaustive`` expands every subset of every frontier node (the
certification mode — complete for small ``n``); ``beam`` keeps the
``beam_width`` most promising nodes per depth and samples
``branch_samples`` seeded subsets per node (always including the full
set and, when stalls are enabled, the empty set), for guided search on
swarms whose closure is out of reach.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from typing import Dict, List, NamedTuple, Optional, Set, Tuple

from repro.constants import GATHER_SQUARE
from repro.core.algorithm import GatherOnGrid
from repro.core.config import AlgorithmConfig
from repro.core.runs import RunFork
from repro.engine.events import NullEventLog
from repro.explore.canonical import (
    RunRow,
    StateKey,
    canonical_state_key,
    checkpoint_from_rows,
    round_phase,
)
from repro.grid.connectivity import articulation_cells, is_connected
from repro.grid.geometry import Cell, bounding_box
from repro.grid.occupancy import SwarmState
from repro.trace.replay import (
    checkpoint_fork,
    controller_checkpoint,
    grid_controller_class,
)

#: Seed salt keeping beam-mode subset sampling an independent stream of
#: a user-facing seed (mirrors the facade's policy/fault salts).
_BRANCH_SEED_SALT = 0xB4A9


class PlannedRound(NamedTuple):
    """One plan memo entry: a node's planned moves, their sorted
    sources, and the run manager forked right after planning."""

    moves: Dict[Cell, Cell]
    movers: Tuple[Cell, ...]
    fork: RunFork


#: Plan memo: ``{(strategy, planning config): {node key: PlannedRound}}``.
PlanMemo = Dict[Tuple[str, AlgorithmConfig], Dict[StateKey, PlannedRound]]


@dataclass(frozen=True)
class Edge:
    """One activation choice out of a node.

    ``choice`` is the activated subset of the round's planned movers,
    as cells in the *parent's* canonical frame; ``offset`` rebases the
    post-round state into the child's canonical frame
    (``child_canonical = post_round - offset``).
    """

    choice: Tuple[Cell, ...]
    child: StateKey
    offset: Cell


@dataclass
class Node:
    """One deduplicated state of the exploration DAG."""

    key: StateKey
    depth: int
    status: str  # "open" | "gathered" | "disconnected"
    #: BFS-tree parent: ``(parent_key, choice, offset)`` of the first
    #: edge that discovered this node (``None`` for the root).
    parent: Optional[Tuple[StateKey, Tuple[Cell, ...], Cell]] = None
    #: Outgoing edges in enumeration order; ``None`` until expanded.
    edges: Optional[List[Edge]] = None

    @property
    def cells(self) -> Tuple[Cell, ...]:
        return self.key[0]

    @property
    def run_rows(self) -> Tuple[RunRow, ...]:
        return self.key[1]

    @property
    def phase(self) -> int:
        return self.key[2]


@dataclass
class WorstCase:
    """Longest-schedule analysis over a (sub)graph of the DAG.

    ``unbounded`` means a cycle of the chosen edge set is reachable —
    the adversary can postpone gathering forever; ``cycle`` then holds
    one witness loop (node keys).  Otherwise ``rounds`` is the exact
    worst number of rounds to gathering and ``path`` one maximizing
    schedule (edge list from the root).  ``complete`` is False when the
    analysis saw an unexpanded node (truncated exploration) — the
    numbers are then lower bounds, not certificates.
    """

    unbounded: bool
    rounds: Optional[int]
    complete: bool
    path: List[Edge] = field(default_factory=list)
    cycle: List[StateKey] = field(default_factory=list)


class StateDag:
    """The deduplicated reachability graph of one seed swarm."""

    def __init__(
        self,
        initial_cells,
        cfg: AlgorithmConfig,
        root: StateKey,
        root_offset: Cell,
        mode: str,
        strategy: str = "grid",
        symmetry: str = "translation",
    ) -> None:
        self.initial_cells: Tuple[Cell, ...] = tuple(sorted(initial_cells))
        self.cfg = cfg
        self.root = root
        #: ``initial = root_cells + root_offset``.
        self.root_offset = root_offset
        self.mode = mode
        #: The grid-state strategy key whose controller was branched
        #: (``"grid"`` or ``"tolerant"``) — witnesses replay with it.
        self.strategy = strategy
        #: Dedup group: ``"translation"`` (exact frames) or ``"d4"``
        #: (verdict-level acceleration; witnesses need exact frames).
        self.symmetry = symmetry
        self.nodes: Dict[StateKey, Node] = {}
        self.edge_count = 0
        self.max_depth_reached = 0
        #: True when a limit (``max_nodes``/``max_depth``/beam pruning)
        #: cut the search before the reachable closure was built.
        self.truncated = False

    # ------------------------------------------------------------------
    @property
    def complete(self) -> bool:
        """True iff the DAG is the full reachable closure (exhaustive
        mode, no limit hit) — the precondition for certified claims."""
        return self.mode == "exhaustive" and not self.truncated

    def counts(self) -> Dict[str, int]:
        """Node count per status, plus totals."""
        out: Dict[str, int] = {
            "total": len(self.nodes),
            "edges": self.edge_count,
        }
        for node in self.nodes.values():
            out[node.status] = out.get(node.status, 0) + 1
        return out

    def first(self, status: str) -> Optional[Node]:
        """The first node of ``status`` in discovery order — under BFS
        that is one of minimal depth (an earliest witness)."""
        for node in self.nodes.values():
            if node.status == status:
                return node
        return None

    def nodes_of_status(self, status: str) -> List[Node]:
        """All nodes of ``status``, in discovery (depth-monotone) order."""
        return [n for n in self.nodes.values() if n.status == status]

    def edge_path(self, key: StateKey) -> List[Edge]:
        """The BFS-tree edge list from the root to ``key``."""
        path: List[Edge] = []
        node = self.nodes[key]
        while node.parent is not None:
            parent_key, choice, offset = node.parent
            path.append(Edge(choice=choice, child=node.key, offset=offset))
            node = self.nodes[parent_key]
        path.reverse()
        return path

    # ------------------------------------------------------------------
    def worst_case(self, *, include_stall: bool = False) -> WorstCase:
        """Longest-path analysis toward gathering over the explored
        edges (stall edges excluded by default: with them, any phase
        cycle lets the adversary idle forever, which certifies nothing
        beyond "doing nothing gathers nothing")."""
        WHITE, GRAY, BLACK = 0, 1, 2
        color: Dict[StateKey, int] = {}
        best: Dict[StateKey, Optional[int]] = {}
        best_edge: Dict[StateKey, Edge] = {}
        complete = True

        stack: List[Tuple[StateKey, int]] = [(self.root, 0)]
        path_stack: List[StateKey] = []
        while stack:
            key, phase_idx = stack.pop()
            node = self.nodes[key]
            if phase_idx == 0:
                if color.get(key, WHITE) != WHITE:
                    continue
                if node.status == "gathered":
                    color[key] = BLACK
                    best[key] = 0
                    continue
                if node.status == "disconnected":
                    color[key] = BLACK
                    best[key] = None
                    continue
                if node.edges is None:
                    # Unexpanded frontier: the true value is unknown.
                    color[key] = BLACK
                    best[key] = None
                    complete = False
                    continue
                color[key] = GRAY
                path_stack.append(key)
                stack.append((key, 1))
                for edge in reversed(node.edges):
                    if not include_stall and not edge.choice:
                        continue
                    child_color = color.get(edge.child, WHITE)
                    if child_color == GRAY:
                        # Back edge: a reachable cycle.
                        start = path_stack.index(edge.child)
                        return WorstCase(
                            unbounded=True,
                            rounds=None,
                            complete=complete,
                            cycle=path_stack[start:] + [edge.child],
                        )
                    if child_color == WHITE:
                        stack.append((edge.child, 0))
            else:
                path_stack.pop()
                color[key] = BLACK
                value: Optional[int] = None
                for edge in node.edges or ():
                    if not include_stall and not edge.choice:
                        continue
                    child_best = best.get(edge.child)
                    if child_best is None:
                        continue
                    if value is None or child_best + 1 > value:
                        value = child_best + 1
                        best_edge[key] = edge
                best[key] = value

        rounds = best.get(self.root)
        path: List[Edge] = []
        if rounds is not None:
            key = self.root
            while key in best_edge:
                edge = best_edge[key]
                path.append(edge)
                key = edge.child
        return WorstCase(
            unbounded=False, rounds=rounds, complete=complete, path=path
        )


# ----------------------------------------------------------------------
# Exploration
# ----------------------------------------------------------------------
def _representative_round(phase: int, cfg: AlgorithmConfig) -> int:
    """A concrete round index with the given phase: planning only reads
    the index through :func:`~repro.explore.canonical.round_phase`, so
    the smallest representative is as good as the real one."""
    if cfg.pipelining:
        return phase
    return 0 if phase == 0 else 1


def _status_of(cells: Set[Cell]) -> str:
    """Terminal classification of a raw cell set, in the precedence of
    the run loop (:func:`~repro.engine.termination.run_engine`): the
    bounding-box gathering test wins over disconnection.  The two *can*
    coincide (e.g. two diagonal robots inside a 2x2 box are
    disconnected yet bbox-gathered); the loop reports such runs as
    ``gathered``, so the explorer must too or witnesses would not
    replay.  The test runs on the raw cells: a node builds no
    :class:`~repro.grid.occupancy.SwarmState` line masks for it."""
    min_x, min_y, max_x, max_y = bounding_box(cells)
    if max_x - min_x < GATHER_SQUARE and max_y - min_y < GATHER_SQUARE:
        return "gathered"
    if not is_connected(cells):
        return "disconnected"
    return "open"


def explore(
    initial_cells,
    *,
    cfg: Optional[AlgorithmConfig] = None,
    mode: str = "exhaustive",
    max_nodes: int = 200_000,
    max_depth: Optional[int] = None,
    beam_width: int = 64,
    branch_samples: int = 24,
    include_stall: bool = True,
    seed: int = 0,
    strategy: str = "grid",
    symmetry: str = "translation",
    plan_memo: Optional[PlanMemo] = None,
) -> StateDag:
    """Build the deduplicated activation-subset DAG of one seed swarm.

    ``mode`` is ``"exhaustive"`` (every subset of every node — complete
    closure when no limit trips) or ``"beam"`` (seeded, guided, bounded:
    per depth keep the ``beam_width`` nodes with the most articulation
    cells — the most fragile states — and sample ``branch_samples``
    subsets per node).  ``include_stall`` keeps the empty activation set
    as a branch (stall rounds still advance the run table, which is one
    of the desynchronization mechanisms).  Limits mark the result
    truncated rather than raising.

    ``strategy`` picks the grid-state controller under exploration
    (stock ``"grid"`` or the connectivity-``"tolerant"`` variant).
    ``symmetry`` picks the dedup group for state keys: the exact
    ``"translation"`` default, or ``"d4"`` which additionally folds the
    eight rotations/reflections into one node — a verdict-level
    accelerator (witness reconstruction needs exact frames and refuses
    D4 DAGs).

    ``plan_memo`` is the plan memo (module docstring) to read and fill;
    callers exploring many seeds pass one dict to all calls.  It never
    changes the result: the default is a fresh memo per call.
    """
    if mode not in ("exhaustive", "beam"):
        raise ValueError(
            f"unknown explore mode {mode!r}; expected 'exhaustive' or 'beam'"
        )
    controller_class = grid_controller_class(strategy)  # fail fast
    if symmetry not in ("translation", "d4"):
        raise ValueError(
            f"unknown explorer symmetry {symmetry!r}; "
            f"expected 'translation' or 'd4'"
        )
    cells = sorted(initial_cells)
    if not cells:
        raise ValueError("cannot explore an empty swarm")
    if not is_connected(set(cells)):
        raise ValueError("initial swarm must be connected (paper model)")
    user_cfg = cfg or AlgorithmConfig()
    # Branch planning uses full-rescan mode: the incremental pipeline's
    # caches would be rebuilt from scratch on every fork anyway (the
    # equivalence suite pins incremental == full rescan bit-identity).
    plan_cfg = replace(user_cfg, incremental=False)
    controller = controller_class(plan_cfg)
    controller.events = NullEventLog()  # branch probes never keep events
    plans = (plan_memo if plan_memo is not None else {}).setdefault(
        (strategy, plan_cfg), {}
    )

    root_key, root_offset = canonical_state_key(
        cells, {"next_id": 0, "runs": []}, round_phase(0, user_cfg),
        symmetry,
    )
    dag = StateDag(
        cells, user_cfg, root_key, root_offset, mode,
        strategy=strategy, symmetry=symmetry,
    )
    root = Node(key=root_key, depth=0, status=_status_of(set(cells)))
    dag.nodes[root_key] = root

    rng = random.Random(seed ^ _BRANCH_SEED_SALT)
    frontier: List[StateKey] = [root_key] if root.status == "open" else []

    while frontier:
        if mode == "beam" and len(frontier) > beam_width:
            # Guided pruning: prefer fragile states (many articulation
            # cells), tie-broken by key for determinism.
            scored = sorted(
                frontier,
                key=lambda k: (-len(articulation_cells(set(k[0]))), k),
            )
            frontier = scored[:beam_width]
            dag.truncated = True
        next_frontier: List[StateKey] = []
        for key in frontier:
            node = dag.nodes[key]
            if max_depth is not None and node.depth >= max_depth:
                dag.truncated = True
                continue
            children = _expand(
                dag, node, controller, plans, rng,
                mode=mode,
                branch_samples=branch_samples,
                include_stall=include_stall,
            )
            for child_key in children:
                child = dag.nodes[child_key]
                if child.status == "open" and child.edges is None:
                    next_frontier.append(child_key)
            if len(dag.nodes) >= max_nodes:
                dag.truncated = True
                next_frontier = []
                break
        # A child can be appended twice within one depth sweep (two
        # parents discovering it); dedupe preserving discovery order.
        seen: Set[StateKey] = set()
        frontier = []
        for k in next_frontier:
            if k not in seen and dag.nodes[k].edges is None:
                seen.add(k)
                frontier.append(k)

    return dag


def _subset_masks(
    m: int,
    *,
    mode: str,
    branch_samples: int,
    include_stall: bool,
    rng: random.Random,
) -> List[int]:
    """The activation-subset bitmasks to branch over, in deterministic
    enumeration order."""
    if mode == "exhaustive" or m <= 1 or (1 << m) <= branch_samples:
        masks = list(range(1 << m))
        if not include_stall:
            masks = masks[1:]
        return masks
    full = (1 << m) - 1
    masks = [full]
    if include_stall:
        masks.append(0)
    seen = set(masks)
    # Seeded sampling; the draw count is fixed so equal seeds give
    # equal branches regardless of collision pattern.
    for _ in range(4 * branch_samples):
        if len(masks) >= branch_samples:
            break
        mask = rng.getrandbits(m)
        if not include_stall and mask == 0:
            continue
        if mask not in seen:
            seen.add(mask)
            masks.append(mask)
    return masks


def _expand(
    dag: StateDag,
    node: Node,
    controller: GatherOnGrid,
    plans: Dict[StateKey, PlannedRound],
    rng: random.Random,
    *,
    mode: str,
    branch_samples: int,
    include_stall: bool,
) -> List[StateKey]:
    """Fork ``node`` across its activation subsets; returns child keys
    in enumeration order (deduplicated against the DAG)."""
    rep = _representative_round(node.phase, dag.cfg)
    manager = controller.run_manager
    plan = plans.get(node.key)
    if plan is None:
        manager.restore(checkpoint_fork(checkpoint_from_rows(node.run_rows)))
        moves = dict(
            controller.plan_round(
                SwarmState.from_validated(set(node.cells)), rep
            )
        )
        plan = PlannedRound(moves, tuple(sorted(moves)), manager.fork())
        plans[node.key] = plan
    movers = plan.movers

    child_phase = round_phase(rep + 1, dag.cfg)
    node.edges = []
    children: List[StateKey] = []
    masks = _subset_masks(
        len(movers),
        mode=mode,
        branch_samples=branch_samples,
        include_stall=include_stall,
        rng=rng,
    )
    for mask in masks:
        chosen = tuple(
            movers[i] for i in range(len(movers)) if mask >> i & 1
        )
        manager.restore(plan.fork)
        branch_state = SwarmState.from_validated(set(node.cells))
        moves = {c: plan.moves[c] for c in chosen}
        merged = branch_state.apply_moves(moves)
        controller.notify_applied(branch_state, rep, moves, merged)

        key, offset = canonical_state_key(
            branch_state.cells,
            controller_checkpoint(controller),
            child_phase,
            dag.symmetry,
        )
        node.edges.append(Edge(choice=chosen, child=key, offset=offset))
        dag.edge_count += 1
        child = dag.nodes.get(key)
        if child is None:
            child = Node(
                key=key,
                depth=node.depth + 1,
                status=_status_of(branch_state.cells),
                parent=(node.key, chosen, offset),
            )
            dag.nodes[key] = child
            dag.max_depth_reached = max(
                dag.max_depth_reached, child.depth
            )
            children.append(key)
    return children
