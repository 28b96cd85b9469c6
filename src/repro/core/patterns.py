"""State-free merge operations (paper Section 3.1, Figures 2 and 3).

Three pattern families, all locally checkable within the viewing radius and
all connectivity-preserving by construction (DESIGN.md Section 3):

* **leaf** — a robot with exactly one 4-neighbor hops onto it.  This is the
  paper's ``k = 1`` merge ("a single robot hops onto a grid cell occupied by
  another robot").
* **corner** — a robot with exactly two, mutually perpendicular, 4-neighbors
  whose between-diagonal is occupied hops onto that diagonal.  This realizes
  the paper's short merges on solid material (Fig. 2 with the subboundary
  bending around a corner).
* **bump** — a maximal straight run of ``k <= max_bump_length`` robots whose
  far side is completely free and whose near side holds at least one robot
  hops one cell toward the near side; landings on occupied cells merge.
  This is the paper's length-``k`` merge operation (Fig. 2): the black
  subboundary hops in one direction, the white (far-side) cells must be
  empty, the grey (near-side) robots provide the collision.

Simultaneity is resolved exactly in the spirit of the paper's Figure 3:

* robots participating in two perpendicular patterns hop **diagonally**
  (Fig. 3 b: robot ``r`` belongs to two subboundaries and hops to the lower
  left, merging with ``a`` and ``b``);
* cells that serve as *targets/supports* of any candidate pattern are
  **frozen** — a pattern one of whose movers is frozen is dropped.  The
  paper obtains the same effect by requiring the grey robots not to move.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    AbstractSet,
    Callable,
    Dict,
    FrozenSet,
    Iterable,
    List,
    Optional,
    Set,
    Tuple,
)

from repro.core.config import AlgorithmConfig
from repro.grid.geometry import Cell, add, neighbors4, perpendicular, sub
from repro.grid.occupancy import SwarmState


@dataclass(frozen=True)
class MergePattern:
    """One candidate merge operation.

    ``movers`` hop by ``direction`` (a unit vector, diagonal only for corner
    patterns); ``frozen`` are the cells whose robots must stay for the
    operation to be safe (leaf target / corner diagonal / bump supports).
    """

    kind: str  # "leaf" | "corner" | "bump"
    movers: Tuple[Cell, ...]
    direction: Cell
    frozen: FrozenSet[Cell]

    def __post_init__(self) -> None:
        if self.kind not in ("leaf", "corner", "bump"):
            raise ValueError(f"unknown pattern kind {self.kind!r}")


# ----------------------------------------------------------------------
# Pattern enumeration
# ----------------------------------------------------------------------
def _runs_of(positions: List[int]) -> Iterable[Tuple[int, int]]:
    """Yield ``(start, stop)`` maximal runs of consecutive integers from a
    sorted position list; runs are inclusive of both ends."""
    start = prev = positions[0]
    for p in positions[1:]:
        if p == prev + 1:
            prev = p
            continue
        yield (start, prev)
        start = prev = p
    yield (start, prev)


def _row_bumps(
    y: int, xs_sorted: List[int], cells: Set[Cell], max_len: int
) -> List[MergePattern]:
    """Horizontal bump candidates of one row (paper Fig. 2, both hops).

    These per-line enumerators are the simulator's hottest full-scan code
    (profiled: ~40% of a round), and :class:`MergeCache` re-runs them on
    every dirty line, so a cached candidate is value-identical to a
    full-scan one by construction.  Row ``y``'s candidates read only rows
    ``y - 1`` to ``y + 1``.
    """
    patterns: List[MergePattern] = []
    yn, ys = y + 1, y - 1
    for x0, x1 in _runs_of(xs_sorted):
        if x1 - x0 + 1 > max_len:
            continue  # too long to verify locally; runners must reshape it
        xs = range(x0, x1 + 1)
        north_free = all((x, yn) not in cells for x in xs)
        south_free = all((x, ys) not in cells for x in xs)
        if north_free and not south_free:  # open north, hop south
            patterns.append(
                MergePattern(
                    "bump",
                    tuple((x, y) for x in xs),
                    (0, -1),
                    frozenset((x, ys) for x in xs if (x, ys) in cells),
                )
            )
        elif south_free and not north_free:  # open south, hop north
            patterns.append(
                MergePattern(
                    "bump",
                    tuple((x, y) for x in xs),
                    (0, 1),
                    frozenset((x, yn) for x in xs if (x, yn) in cells),
                )
            )
    return patterns


def _col_bumps(
    x: int, ys_sorted: List[int], cells: Set[Cell], max_len: int
) -> List[MergePattern]:
    """Vertical twin of :func:`_row_bumps` (column ``x``)."""
    patterns: List[MergePattern] = []
    xe, xw = x + 1, x - 1
    for y0, y1 in _runs_of(ys_sorted):
        if y1 - y0 + 1 > max_len:
            continue
        ys = range(y0, y1 + 1)
        east_free = all((xe, y) not in cells for y in ys)
        west_free = all((xw, y) not in cells for y in ys)
        if east_free and not west_free:  # open east, hop west
            patterns.append(
                MergePattern(
                    "bump",
                    tuple((x, y) for y in ys),
                    (-1, 0),
                    frozenset((xw, y) for y in ys if (xw, y) in cells),
                )
            )
        elif west_free and not east_free:  # open west, hop east
            patterns.append(
                MergePattern(
                    "bump",
                    tuple((x, y) for y in ys),
                    (1, 0),
                    frozenset((xe, y) for y in ys if (xe, y) in cells),
                )
            )
    return patterns


def _bump_patterns(
    occupied: SwarmState | Set[Cell], cfg: AlgorithmConfig
) -> List[MergePattern]:
    """All bump merge candidates (paper Fig. 2, both axes, both directions)."""
    cells = occupied.cells if isinstance(occupied, SwarmState) else occupied
    rows: Dict[int, List[int]] = {}
    cols: Dict[int, List[int]] = {}
    for x, y in cells:
        rows.setdefault(y, []).append(x)
        cols.setdefault(x, []).append(y)
    for v in rows.values():
        v.sort()
    for v in cols.values():
        v.sort()

    patterns: List[MergePattern] = []
    max_len = cfg.max_bump_length
    for y, xs in rows.items():
        patterns.extend(_row_bumps(y, xs, cells, max_len))
    for x, ys in cols.items():
        patterns.extend(_col_bumps(x, ys, cells, max_len))
    return patterns


def _leaf_corner_for(
    cells: Set[Cell], c: Cell, cfg: AlgorithmConfig
) -> Optional[MergePattern]:
    """The leaf or corner candidate of one robot (at most one exists).

    Neighbor checks are inlined — the incremental rescan calls this for
    every cell in a dirty 8-neighborhood every round.
    """
    x, y = c
    nbrs = []
    if (x + 1, y) in cells:
        nbrs.append((x + 1, y))
    if (x, y + 1) in cells:
        nbrs.append((x, y + 1))
    if (x - 1, y) in cells:
        nbrs.append((x - 1, y))
    if (x, y - 1) in cells:
        nbrs.append((x, y - 1))
    if len(nbrs) == 1:
        # Leaf merge: always safe — removing a degree-1 vertex keeps
        # the connectivity graph connected.
        return MergePattern(
            kind="leaf",
            movers=(c,),
            direction=sub(nbrs[0], c),
            frozen=frozenset(nbrs),
        )
    if (
        cfg.enable_corner_merges
        and len(nbrs) == 2
        and perpendicular(sub(nbrs[0], c), sub(nbrs[1], c))
    ):
        diag = add(sub(nbrs[0], c), sub(nbrs[1], c))
        target = add(c, diag)
        if target in cells:
            # Corner merge: the mover stays 4-adjacent to both former
            # neighbors from the diagonal cell.
            return MergePattern(
                kind="corner",
                movers=(c,),
                direction=diag,
                frozen=frozenset((target,)),
            )
    return None


def _leaf_corner_patterns(
    occupied: SwarmState | Set[Cell],
    cfg: AlgorithmConfig,
    exclude: Set[Cell],
) -> List[MergePattern]:
    """Leaf and corner candidates for robots not already in a bump."""
    cells = occupied.cells if isinstance(occupied, SwarmState) else occupied
    patterns: List[MergePattern] = []
    for c in cells:
        if c in exclude:
            continue
        p = _leaf_corner_for(cells, c, cfg)
        if p is not None:
            patterns.append(p)
    return patterns


# ----------------------------------------------------------------------
# Composition and conflict resolution
# ----------------------------------------------------------------------
def _clamp(v: int) -> int:
    return -1 if v < -1 else (1 if v > 1 else v)


def compose_moves(
    patterns: Iterable[MergePattern],
) -> Dict[Cell, Cell]:
    """Combine surviving patterns into per-robot moves.

    A robot in one pattern hops by that pattern's direction; a robot in two
    perpendicular patterns hops diagonally (paper Fig. 3 b).  Opposite
    memberships cancel (cannot arise from the enumerators, but the guard
    keeps the function total).
    """
    votes: Dict[Cell, Set[Cell]] = {}
    for p in patterns:
        for m in p.movers:
            votes.setdefault(m, set()).add(p.direction)
    moves: Dict[Cell, Cell] = {}
    for robot, dirs in votes.items():
        dx = _clamp(sum(d[0] for d in dirs))
        dy = _clamp(sum(d[1] for d in dirs))
        if dx == 0 and dy == 0:
            continue
        moves[robot] = (robot[0] + dx, robot[1] + dy)
    return moves


def plan_merges(
    state: SwarmState | Set[Cell], cfg: AlgorithmConfig
) -> Tuple[Dict[Cell, Cell], List[MergePattern]]:
    """All merge moves for this round, with the surviving patterns.

    Conflict rule (paper Fig. 3 analysis, DESIGN.md Section 3):

    * **bump** patterns always fire.  Mutually overlapping bumps compose
      into diagonal hops (Fig. 3 b), and a bump mover's departure never
      strands anyone: by maximality + the open far side, only the bump's
      own supports and co-movers are 4-adjacent to it.
    * **leaf/corner** (single-mover) patterns are dropped when their mover
      is itself a *support or target* of any candidate pattern — the
      paper's grey robots must not move, else a run landing on the
      departed support dangles (a hypothesis-found counterexample lives in
      tests/test_patterns.py::TestRegressions).
    * additionally a **leaf** is dropped when its target moves: hopping
      after a moving anchor would land on a vacated cell or swap forever.
    """
    candidates: List[MergePattern] = []
    if cfg.enable_bump_merges:
        candidates.extend(_bump_patterns(state, cfg))
    bump_movers: Set[Cell] = {
        m for p in candidates for m in p.movers
    }
    candidates.extend(_leaf_corner_patterns(state, cfg, exclude=bump_movers))
    return _resolve(candidates)


def _resolve(
    candidates: List[MergePattern],
) -> Tuple[Dict[Cell, Cell], List[MergePattern]]:
    """Conflict resolution over the full candidate set (see plan_merges).

    Purely set-based: the resulting *moves* are independent of candidate
    order, which is what lets the cached enumeration of
    :class:`MergeCache` assemble candidates in a different order than the
    full scan while producing bit-identical trajectories.
    """
    movers_all: Set[Cell] = {m for p in candidates for m in p.movers}
    frozen_all: Set[Cell] = set()
    for p in candidates:
        frozen_all |= p.frozen

    surviving: List[MergePattern] = []
    for p in candidates:
        if p.kind == "bump":
            surviving.append(p)
            continue
        mover = p.movers[0]
        if mover in frozen_all:
            continue  # this robot is somebody's grey cell: it must stay
        if p.kind == "leaf" and any(t in movers_all for t in p.frozen):
            continue
        surviving.append(p)
    return compose_moves(surviving), surviving


# ----------------------------------------------------------------------
# Incremental candidate enumeration (dirty-region restricted rescans)
# ----------------------------------------------------------------------
def _refresh_lines(
    patterns: Dict[int, List[MergePattern]],
    lines: Dict[int, List[int]],
    dirty: Iterable[int],
    bumps: Callable[[int, List[int], Set[Cell], int], List[MergePattern]],
    cells: Set[Cell],
    max_len: int,
) -> Tuple[Set[Cell], Set[Cell]]:
    """Re-enumerate the bump candidates of the ``dirty`` lines of one axis
    in place; return the movers those lines had before and have after."""
    old_m: Set[Cell] = set()
    new_m: Set[Cell] = set()
    for k in dirty:
        for p in patterns.pop(k, ()):
            old_m.update(p.movers)
        positions = lines.get(k)
        if positions is not None:
            ps = bumps(k, positions, cells, max_len)
            if ps:
                patterns[k] = ps
                for p in ps:
                    new_m.update(p.movers)
    return old_m, new_m


class MergeCache:
    """Caches merge-pattern candidates between engine rounds.

    Invalidation is by **line** (see ``docs/incremental.md``):

    * the bump candidates of row ``y`` read only rows ``y - 1`` to
      ``y + 1`` (the row's runs, their free and support sides), so a flip
      at ``(x, y)`` dirties rows ``y - 1`` to ``y + 1`` and columns
      ``x - 1`` to ``x + 1``, and each dirty line is re-enumerated
      wholesale with the full scan's own :func:`_row_bumps` /
      :func:`_col_bumps`;
    * the leaf/corner candidate of robot ``c`` depends on occupancy within
      Chebyshev distance 1 of ``c`` *and* on whether ``c`` is a bump mover
      — ``c`` is re-evaluated iff a cell in its 8-neighborhood flipped or
      its bump-mover status changed.

    ``candidates()`` therefore returns exactly the candidate *set* the full
    scan of :func:`plan_merges` would produce, in a different order.
    """

    def __init__(self, cfg: AlgorithmConfig) -> None:
        self.cfg = cfg
        self._row_patterns: Dict[int, List[MergePattern]] = {}
        self._col_patterns: Dict[int, List[MergePattern]] = {}
        self._cell_patterns: Dict[Cell, MergePattern] = {}
        # Bump movers per axis: the cells barred from leaf/corner
        # candidacy.
        self._row_movers: Set[Cell] = set()
        self._col_movers: Set[Cell] = set()
        self._primed = False

    def rebuild(self, state: SwarmState) -> None:
        """Full enumeration; resets the cache."""
        cfg = self.cfg
        cells = state.cells
        self._row_patterns = {}
        self._col_patterns = {}
        row_movers: Set[Cell] = set()
        col_movers: Set[Cell] = set()
        if cfg.enable_bump_merges:
            rows, cols = state.rows(), state.cols()
            _, row_movers = _refresh_lines(
                self._row_patterns,
                rows,
                rows,
                _row_bumps,
                cells,
                cfg.max_bump_length,
            )
            _, col_movers = _refresh_lines(
                self._col_patterns,
                cols,
                cols,
                _col_bumps,
                cells,
                cfg.max_bump_length,
            )
        self._row_movers = row_movers
        self._col_movers = col_movers
        self._cell_patterns = {}
        for c in cells:
            if c in row_movers or c in col_movers:
                continue
            p = _leaf_corner_for(cells, c, cfg)
            if p is not None:
                self._cell_patterns[c] = p
        self._primed = True

    def update(self, state: SwarmState, changed: AbstractSet[Cell]) -> None:
        """Re-derive the candidates of the dirty lines and neighborhoods.

        ``changed`` holds the cells whose occupancy flipped
        (``state.last_changed``).  Each dirty line is re-enumerated
        wholesale, so the bump work is O(occupancy of the dirty lines):
        it grows with swarm width, not with the number of moved robots.
        Leaf/corner candidates are re-evaluated on the changed
        8-neighborhoods and on the cells whose bump-mover status flipped.
        """
        if not self._primed:
            self.rebuild(state)
            return
        if not changed:
            return
        cfg = self.cfg
        cells = state.cells
        row_movers, col_movers = self._row_movers, self._col_movers

        leaf_dirty: Set[Cell] = set()
        if cfg.enable_bump_merges:
            max_len = cfg.max_bump_length
            old_row_m, new_row_m = _refresh_lines(
                self._row_patterns,
                state.rows(),
                sorted({y + d for _, y in changed for d in (-1, 0, 1)}),
                _row_bumps,
                cells,
                max_len,
            )
            old_col_m, new_col_m = _refresh_lines(
                self._col_patterns,
                state.cols(),
                sorted({x + d for x, _ in changed for d in (-1, 0, 1)}),
                _col_bumps,
                cells,
                max_len,
            )
            # Mover status, snapshotted over the touched cells only
            # before either mover set mutates.
            touched = (old_row_m ^ new_row_m) | (old_col_m ^ new_col_m)
            was_mover = {
                c for c in touched if c in row_movers or c in col_movers
            }
            row_movers -= old_row_m
            row_movers |= new_row_m
            col_movers -= old_col_m
            col_movers |= new_col_m
            for c in touched:
                if (c in row_movers or c in col_movers) != (c in was_mover):
                    leaf_dirty.add(c)

        for cx, cy in changed:
            for dx in (-1, 0, 1):
                for dy in (-1, 0, 1):
                    leaf_dirty.add((cx + dx, cy + dy))
        cell_patterns = self._cell_patterns
        for c in leaf_dirty:
            p = (
                _leaf_corner_for(cells, c, cfg)
                if c in cells
                and c not in row_movers
                and c not in col_movers
                else None
            )
            if p is not None:
                cell_patterns[c] = p
            else:
                cell_patterns.pop(c, None)

    def candidates(self) -> List[MergePattern]:
        """The full candidate list (bumps first, then leaf/corner)."""
        out: List[MergePattern] = []
        for ps in self._row_patterns.values():
            out.extend(ps)
        for ps in self._col_patterns.values():
            out.extend(ps)
        out.extend(self._cell_patterns.values())
        return out

    def plan(self) -> Tuple[Dict[Cell, Cell], List[MergePattern]]:
        """Resolve the cached candidates; same contract as
        :func:`plan_merges`."""
        return _resolve(self.candidates())


# ----------------------------------------------------------------------
# Per-robot local re-derivation (locality audit; used by tests)
# ----------------------------------------------------------------------
def merge_move_for(view, robot: Cell, cfg: AlgorithmConfig) -> Optional[Cell]:
    """Recompute ``robot``'s merge move using only membership queries.

    ``view`` is anything supporting ``cell in view`` — in tests a
    :class:`repro.core.view.LocalView`, which *raises* if the rule inspects
    a cell outside the viewing radius.  Must agree with :func:`plan_merges`;
    the property tests check exactly that.
    """

    def my_patterns(c: Cell) -> List[MergePattern]:
        """Candidate patterns having ``c`` as a mover."""
        out: List[MergePattern] = []
        if cfg.enable_bump_merges:
            for axis, far_near in (
                ((1, 0), ((0, 1), (0, -1))),
                ((1, 0), ((0, -1), (0, 1))),
                ((0, 1), ((1, 0), (-1, 0))),
                ((0, 1), ((-1, 0), (1, 0))),
            ):
                far, near = far_near
                # Expand the maximal run through c along `axis`, capping the
                # walk so an over-long run is abandoned without querying
                # cells beyond the viewing radius.
                cap = cfg.max_bump_length
                lo = c
                steps = 0
                while steps <= cap and sub(lo, axis) in view:
                    lo = sub(lo, axis)
                    steps += 1
                hi = c
                while steps <= cap and add(hi, axis) in view:
                    hi = add(hi, axis)
                    steps += 1
                k = (hi[0] - lo[0]) + (hi[1] - lo[1]) + 1
                if k > cfg.max_bump_length or steps > cap:
                    continue
                run = tuple(
                    add(lo, (axis[0] * i, axis[1] * i)) for i in range(k)
                )
                if any(add(rc, far) in view for rc in run):
                    continue
                supports = tuple(
                    add(rc, near) for rc in run if add(rc, near) in view
                )
                if not supports:
                    continue
                out.append(
                    MergePattern("bump", run, near, frozenset(supports))
                )
        if not out:
            nbrs = [n for n in neighbors4(c) if n in view]
            if len(nbrs) == 1:
                out.append(
                    MergePattern(
                        "leaf", (c,), sub(nbrs[0], c), frozenset(nbrs)
                    )
                )
            elif (
                cfg.enable_corner_merges
                and len(nbrs) == 2
                and perpendicular(sub(nbrs[0], c), sub(nbrs[1], c))
            ):
                diag = add(sub(nbrs[0], c), sub(nbrs[1], c))
                if add(c, diag) in view:
                    out.append(
                        MergePattern(
                            "corner",
                            (c,),
                            diag,
                            frozenset((add(c, diag),)),
                        )
                    )
        return out

    mine = my_patterns(robot)
    if not mine:
        return None

    def target_moves(c: Cell) -> bool:
        """Does the robot on cell ``c`` move in any candidate pattern?"""
        return c in view and bool(my_patterns(c))

    def robot_is_frozen() -> bool:
        """Is ``robot`` a support/target of a neighbor's candidate pattern?

        Freeze sources: a leaf pointing at us or a bump landing on us
        (cardinal neighbors), or a corner targeting our cell (diagonal
        neighbors).
        """
        for nb in neighbors4(robot):
            if nb in view:
                for p in my_patterns(nb):
                    if robot in p.frozen:
                        return True
        for d in ((1, 1), (-1, 1), (-1, -1), (1, -1)):
            nb = add(robot, d)
            if nb in view:
                for p in my_patterns(nb):
                    if robot in p.frozen:
                        return True
        return False

    surviving: List[MergePattern] = []
    for p in mine:
        if p.kind == "bump":
            surviving.append(p)
            continue
        if robot_is_frozen():
            continue
        if p.kind == "leaf" and any(target_moves(t) for t in p.frozen):
            continue
        surviving.append(p)
    moves = compose_moves(surviving)
    return moves.get(robot)
