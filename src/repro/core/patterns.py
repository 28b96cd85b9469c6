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

The rules are implemented twice.  :func:`plan_merges` scans the cell set
and lists every candidate as a :class:`MergePattern`; the explorer, the
full-rescan mode (``incremental=False``), :mod:`repro.analysis.progress`
and the figures call it.  :class:`MergeCache`, the incremental
pipeline's planner, derives the same moves from the state's per-row and
per-column bitmasks and keeps them between rounds.  The differential
tests hold the two equal on every round of every input they drive.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    AbstractSet,
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
from repro.grid.occupancy import LineMasks, SwarmState


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

    The full scan's per-line enumerator: it walks the row's runs cell by
    cell.  :func:`_line_bumps` finds the same movers with mask
    operations for :class:`MergeCache`.  Row ``y``'s candidates read only
    rows ``y - 1`` to ``y + 1``.
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

    Neighbor checks are inlined — the full scan calls this for every
    robot that is not a bump mover.  :class:`MergeCache` evaluates the
    same test for a whole row at once with mask operations.
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
    order.  :meth:`MergeCache.plan` applies the same rule row by row to
    the candidates' mover and frozen masks.
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
# Incremental merge planning over line masks
# ----------------------------------------------------------------------
def _line_bumps(
    line: int, pos: int, neg: int, max_len: int
) -> Tuple[int, int]:
    """Bump movers of one line mask, as ``(to_neg, to_pos)`` masks.

    ``pos`` and ``neg`` are the masks of the two neighbour lines in the
    same bit frame.  A maximal run of ``line`` of at most ``max_len``
    cells hops toward ``neg`` when its ``pos`` side is free and its
    ``neg`` side is not, and toward ``pos`` the other way round: the
    patterns :func:`_row_bumps` and :func:`_col_bumps` list cell by
    cell, one run per loop turn.
    """
    if not line & (pos ^ neg):
        return 0, 0  # a qualifying run has a cell with one side occupied
    to_neg = to_pos = 0
    while line:
        low = line & -line
        rest = line & (line + low)  # the carry clears the lowest run
        run = line ^ rest
        line = rest
        if run >= low << max_len:
            continue  # too long to verify locally; runners reshape it
        if pos & run:
            if not neg & run:
                to_pos |= run
        elif neg & run:
            to_neg |= run
    return to_neg, to_pos


#: The masks of a row without candidates (see ``MergeCache._lines``).
_NO_LINE = (0,) * 16
#: The hop of each mover mask :meth:`MergeCache.plan` materializes.
_HOPS = ((0, -1), (0, 1), (1, 0), (-1, 0), (1, -1), (-1, -1), (1, 1), (-1, 1))


class MergeCache:
    """The merge moves of :func:`plan_merges`, kept between rounds.

    Everything is derived from the state's line masks
    (:meth:`SwarmState.masks`), one Python int per row and column, so a
    line is re-derived in a few big-int operations instead of cell by
    cell.  Per line the cache keeps:

    * the bump movers of each row (hopping south, north) and of each
      column (hopping west, east), the column movers also transposed
      into per-row masks: row ``y``'s bumps read only rows ``y - 1`` to
      ``y + 1``, so a flip at ``(x, y)`` re-derives rows ``y - 1`` to
      ``y + 1`` and columns ``x - 1`` to ``x + 1``;
    * per row with a candidate, its leaf and corner movers by direction
      (cells with one occupied 4-neighbour; two perpendicular ones and
      the diagonal between them occupied), which read rows ``y - 1`` to
      ``y + 1`` and the row's bump movers, plus the union of all the
      row's candidate movers and the cells its candidates freeze in the
      rows below, above and in itself.  These are re-derived on the
      dirty rows and on the rows whose column-mover bits flipped.

    :meth:`plan` then applies the conflict rule of :func:`plan_merges`
    row by row, from the cached masks of the row and its two neighbours,
    and returns the same moves.  A different state or a rebuilt mask
    object (a cell landed below the mask origin) resets the cache.
    """

    def __init__(self, cfg: AlgorithmConfig) -> None:
        self.cfg = cfg
        self._masks: Optional[LineMasks] = None
        # Bump movers: row y -> (south, north) x-masks; column x ->
        # (west, east) y-masks; and the column movers per row,
        # y -> x-mask.
        self._row_bumps: Dict[int, Tuple[int, int]] = {}
        self._col_bumps: Dict[int, Tuple[int, int]] = {}
        self._west: Dict[int, int] = {}
        self._east: Dict[int, int] = {}
        # Row y -> (movers, frozen below, frozen above, frozen in row,
        # south, north, west, east bump movers, leaf N, S, E, W movers,
        # corner NE, NW, SE, SW movers), for rows with a candidate.
        self._lines: Dict[int, Tuple[int, ...]] = {}

    def rebuild(self, state: SwarmState) -> None:
        """Derive every line from scratch; resets the cache."""
        masks = self._masks = state.masks()
        self._row_bumps = {}
        self._col_bumps = {}
        self._west = {}
        self._east = {}
        self._lines = {}
        if self.cfg.enable_bump_merges:
            self._derive_row_bumps(masks.rows)
            self._derive_col_bumps(masks.cols)
        self._derive_lines(masks.rows)

    def update(self, state: SwarmState, changed: AbstractSet[Cell]) -> None:
        """Re-derive the lines around the cells in ``changed``.

        ``changed`` holds the cells whose occupancy flipped since the
        last sync (``state.last_changed``), which the state's masks have
        already absorbed.  The work is a few mask operations per dirty
        line plus one bit flip per column mover that appeared or went.
        """
        if state.masks() is not self._masks:
            self.rebuild(state)
            return
        if not changed:
            return
        rows = {y + d for _, y in changed for d in (-1, 0, 1)}
        if self.cfg.enable_bump_merges:
            self._derive_row_bumps(rows)
            rows |= self._derive_col_bumps(
                {x + d for x, _ in changed for d in (-1, 0, 1)}
            )
        self._derive_lines(rows)

    def _derive_row_bumps(self, ys: Iterable[int]) -> None:
        rows = self._masks.rows
        row_bumps = self._row_bumps
        max_len = self.cfg.max_bump_length
        for y in ys:
            r = rows.get(y)
            bumps = (
                _line_bumps(r, rows.get(y + 1, 0), rows.get(y - 1, 0), max_len)
                if r
                else (0, 0)
            )
            if bumps[0] or bumps[1]:
                row_bumps[y] = bumps
            else:
                row_bumps.pop(y, None)

    def _derive_col_bumps(self, xs: Iterable[int]) -> Set[int]:
        """Re-derive the columns ``xs``; returns the rows whose
        transposed column-mover bits flipped."""
        masks = self._masks
        cols, x0, y0 = masks.cols, masks.x0, masks.y0
        col_bumps = self._col_bumps
        max_len = self.cfg.max_bump_length
        flipped: Set[int] = set()
        for x in xs:
            c = cols.get(x)
            new = (
                _line_bumps(c, cols.get(x + 1, 0), cols.get(x - 1, 0), max_len)
                if c
                else (0, 0)
            )
            old = col_bumps.get(x, (0, 0))
            if new == old:
                continue
            if new[0] or new[1]:
                col_bumps[x] = new
            else:
                del col_bumps[x]
            bit = 1 << (x - x0)
            for flips, by_row in (
                (old[0] ^ new[0], self._west),
                (old[1] ^ new[1], self._east),
            ):
                while flips:
                    low = flips & -flips
                    flips ^= low
                    y = y0 + low.bit_length() - 1
                    m = by_row.get(y, 0) ^ bit
                    if m:
                        by_row[y] = m
                    else:
                        del by_row[y]
                    flipped.add(y)
        return flipped

    def _derive_lines(self, ys: Iterable[int]) -> None:
        rows = self._masks.rows
        row_bumps, west, east = self._row_bumps, self._west, self._east
        corners = self.cfg.enable_corner_merges
        lines = self._lines
        for y in ys:
            r = rows.get(y)
            if not r:
                lines.pop(y, None)
                continue
            bs, bn = row_bumps.get(y, (0, 0))
            bw, be = west.get(y, 0), east.get(y, 0)
            bump = bs | bn | bw | be
            # Occupied neighbour on each side, per cell of the row.
            nb_n, nb_s = rows.get(y + 1, 0), rows.get(y - 1, 0)
            nb_e, nb_w = r >> 1, r << 1
            free = r & ~bump
            only_n = free & nb_n & ~nb_s
            only_s = free & nb_s & ~nb_n
            only_e = nb_e & ~nb_w
            only_w = nb_w & ~nb_e
            horiz, vert = nb_e | nb_w, nb_n | nb_s
            ln, ls = only_n & ~horiz, only_s & ~horiz
            le, lw = free & only_e & ~vert, free & only_w & ~vert
            if corners:
                cne = only_n & only_e & (nb_n >> 1)
                cnw = only_n & only_w & (nb_n << 1)
                cse = only_s & only_e & (nb_s >> 1)
                csw = only_s & only_w & (nb_s << 1)
            else:
                cne = cnw = cse = csw = 0
            movers = bump | ln | ls | le | lw | cne | cnw | cse | csw
            if not movers:
                lines.pop(y, None)
                continue
            lines[y] = (
                movers,
                (bs & nb_s) | ls | (cse << 1) | (csw >> 1),
                (bn & nb_n) | ln | (cne << 1) | (cnw >> 1),
                (((be << 1) | (bw >> 1)) & r) | (le << 1) | (lw >> 1),
                bs, bn, bw, be,
                ln, ls, le, lw,
                cne, cnw, cse, csw,
            )

    def plan(self) -> Dict[Cell, Cell]:
        """This round's merge moves; equal to ``plan_merges(state,
        cfg)[0]`` for the state of the last sync.

        Per row with a candidate: a leaf or corner mover that some
        candidate freezes stays, and so does a leaf whose target is a
        candidate mover; every bump mover hops, diagonally when it is in
        a row bump and a column bump.  O(candidate rows + moves).
        """
        lines = self._lines
        x0 = self._masks.x0 if self._masks is not None else 0
        moves: Dict[Cell, Cell] = {}
        for y in sorted(lines):
            (
                movers, _, _, level,
                bs, bn, bw, be,
                ln, ls, le, lw,
                cne, cnw, cse, csw,
            ) = lines[y]
            if ln | ls | le | lw | cne | cnw | cse | csw:
                # Frozen here: the row above's "below" cells, the row
                # below's "above" cells and the row's own; a leaf also
                # stays when its target is a mover (field 0).
                up = lines.get(y + 1, _NO_LINE)
                down = lines.get(y - 1, _NO_LINE)
                stay = ~(level | up[1] | down[2])
                ln &= stay & ~up[0]
                ls &= stay & ~down[0]
                le &= stay & ~(movers >> 1)
                lw &= stay & ~(movers << 1)
                cne &= stay
                cnw &= stay
                cse &= stay
                csw &= stay
            horiz, vert = bw | be, bs | bn
            for mask, (dx, dy) in zip(
                (
                    (bs & ~horiz) | ls,
                    (bn & ~horiz) | ln,
                    (be & ~vert) | le,
                    (bw & ~vert) | lw,
                    (bs & be) | cse,
                    (bs & bw) | csw,
                    (bn & be) | cne,
                    (bn & bw) | cnw,
                ),
                _HOPS,
            ):
                while mask:
                    low = mask & -mask
                    mask ^= low
                    x = x0 + low.bit_length() - 1
                    moves[(x, y)] = (x + dx, y + dy)
        return moves


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
