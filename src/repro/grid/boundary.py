"""Boundary extraction and cyclic traversal.

The paper (Section 1, Fig. 1) defines the *boundaries* of a swarm: all robots
with at least one unconnected (free) side.  The swarm has exactly one *outer*
boundary and possibly several *inner* boundaries (around holes).  The
gathering algorithm's run states travel along boundaries, so we need the
boundary as an *ordered cyclic sequence* of robots, not just a set.

We trace contours over *sides*: a side is a pair ``(cell, normal)`` where
``cell`` is occupied and ``cell + normal`` is free.  Walking with the swarm
on the left (counterclockwise for the outer contour, clockwise around holes)
gives the transition rules below.  A robot may legitimately appear several
times in one cycle — e.g. every robot of a 1-thick line appears once per
side, matching the paper's remark that the vector chain "may overlap itself
at places where the diameter of the swarm's boundary amounts only 1".
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import List, Sequence, Set, Tuple

from repro.errors import InvariantError
from repro.grid.geometry import (
    Cell,
    DIRECTIONS4,
    SOUTH,
    add,
)
from repro.grid.occupancy import LineMasks, SwarmState

#: A boundary side: (occupied cell, outward unit normal into free space).
Side = Tuple[Cell, Cell]


@dataclass(frozen=True)
class Boundary:
    """One closed boundary contour of a swarm.

    ``sides`` is the cyclic side sequence produced by the trace; ``robots``
    is the cyclic robot sequence with consecutive duplicates collapsed (a
    convex corner contributes several sides of the same cell).  ``is_outer``
    distinguishes the single outer boundary from inner (hole) boundaries.
    """

    sides: Tuple[Side, ...]
    robots: Tuple[Cell, ...]
    is_outer: bool

    def __len__(self) -> int:
        return len(self.robots)

    @cached_property
    def robot_set(self) -> frozenset[Cell]:
        """The set of distinct robots on this boundary."""
        return frozenset(self.robots)

    def successor(self, index: int, direction: int = 1) -> int:
        """Index of the next robot along the cycle in ``direction`` (+1/-1)."""
        return (index + direction) % len(self.robots)

    def distance_along(self, i: int, j: int, direction: int = 1) -> int:
        """Number of steps from index ``i`` to index ``j`` walking in
        ``direction`` around the cycle (paper's boundary distance is this
        value; two adjacent boundary robots have distance 1)."""
        n = len(self.robots)
        if direction == 1:
            return (j - i) % n
        return (i - j) % n

    def indices_of(self, robot: Cell) -> Tuple[int, ...]:
        """All cycle indices at which ``robot`` appears."""
        return tuple(i for i, r in enumerate(self.robots) if r == robot)


def _collapse(cells: Sequence[Cell]) -> Tuple[Cell, ...]:
    """Collapse consecutive duplicates cyclically."""
    out: List[Cell] = []
    for c in cells:
        if not out or out[-1] != c:
            out.append(c)
    if len(out) > 1 and out[0] == out[-1]:
        out.pop()
    return tuple(out)


def _trace_cycle(occupied: Set[Cell], start: Side) -> List[Side]:
    """The full boundary cycle through ``start``.

    Successor rule, walking with the swarm on the left: with outward
    normal ``d`` the walk direction is ``m = rotate_ccw(d)``; let
    ``A = cell + m`` (ahead) and ``B = A + d`` (ahead, outside corner):

    * ``A`` free                 -> convex corner: stay on ``cell``,
      normal rotates counterclockwise;
    * ``A`` occupied, ``B`` free -> straight wall: advance to ``A``;
    * ``A`` and ``B`` occupied   -> concave corner: jump to ``B``, normal
      rotates clockwise.

    The rule is inlined (no per-side function call, no geometry helpers):
    this loop runs once per side of every re-traced contour and is the
    profile's hottest spot on contour-dominated swarms.
    """
    trace: List[Side] = [start]
    append = trace.append
    (cx, cy), (dx, dy) = start
    while True:
        mx, my = -dy, dx  # rotate_ccw(d)
        ax, ay = cx + mx, cy + my
        if (ax, ay) not in occupied:
            cur = ((cx, cy), (mx, my))  # convex: normal rotates ccw
            dx, dy = mx, my
        elif (ax + dx, ay + dy) not in occupied:
            cur = ((ax, ay), (dx, dy))  # straight
            cx, cy = ax, ay
        else:
            cx, cy = ax + dx, ay + dy  # concave: normal rotates cw
            dx, dy = dy, -dx
            cur = ((cx, cy), (dx, dy))
        if cur == start:
            return trace
        append(cur)


def _make_boundary(
    trace: List[Side], *, is_outer: bool, anchor: Side
) -> Boundary:
    """Canonicalize a traced cycle into a :class:`Boundary`.

    The cycle is rotated to a start side that depends only on the cycle's
    geometry — the anchor side for the outer contour, the lexicographically
    smallest side for inner contours — so that full and incremental
    extraction produce byte-identical Boundary objects regardless of where
    the trace happened to begin.
    """
    pivot = trace.index(anchor) if is_outer else trace.index(min(trace))
    if pivot:
        trace = trace[pivot:] + trace[:pivot]
    return Boundary(
        sides=tuple(trace),
        robots=_collapse([c for c, _ in trace]),
        is_outer=is_outer,
    )


def _sorted_boundaries(boundaries: List[Boundary]) -> List[Boundary]:
    """Canonical list order: the outer contour first, inner contours by
    their (canonical) first side."""
    boundaries.sort(key=lambda b: (not b.is_outer, b.sides[0]))
    return boundaries


def outer_anchor(occupied: Set[Cell]) -> Side:
    """The bottommost (then leftmost) cell's south side — always on the
    outer contour."""
    anchor_cell = min(occupied, key=lambda c: (c[1], c[0]))
    return (anchor_cell, SOUTH)


def _outer_anchor_from_rows(masks: LineMasks) -> Side:
    """:func:`outer_anchor` in O(#rows) from a swarm's maintained line
    masks: the lowest row's lowest set bit."""
    y = min(masks.rows)
    low = masks.rows[y]
    return ((masks.x0 + (low & -low).bit_length() - 1, y), SOUTH)


def extract_boundaries(state: SwarmState | Set[Cell]) -> List[Boundary]:
    """All boundary contours of the swarm; the outer one is listed first.

    Raises ``ValueError`` on an empty swarm.  O(total number of sides).
    Output is canonical (see :func:`_make_boundary`): independent of set
    iteration order, and reproduced byte-identically by the incremental
    :class:`repro.grid.ring.RingSet` via ``to_boundary()``.
    """
    occupied: Set[Cell] = (
        state.cells if isinstance(state, SwarmState) else set(state)
    )
    if not occupied:
        raise ValueError("cannot extract boundaries of an empty swarm")

    all_sides: Set[Side] = {
        (c, d)
        for c in occupied
        for d in DIRECTIONS4
        if add(c, d) not in occupied
    }
    anchor = outer_anchor(occupied)
    if anchor not in all_sides:
        raise InvariantError(
            f"outer anchor {anchor} is not a boundary side of the swarm"
        )

    boundaries: List[Boundary] = []
    unvisited = set(all_sides)
    # Trace the outer contour first so callers can rely on ordering.
    seeds: List[Side] = [anchor]
    while seeds or unvisited:
        start = seeds.pop() if seeds else next(iter(unvisited))
        if start not in unvisited:
            continue
        trace = _trace_cycle(occupied, start)
        unvisited.difference_update(trace)
        boundaries.append(
            _make_boundary(trace, is_outer=(start == anchor), anchor=anchor)
        )
    return _sorted_boundaries(boundaries)


def outer_boundary(state: SwarmState | Set[Cell]) -> Boundary:
    """The swarm's single outer boundary (paper Fig. 1, black robots)."""
    return extract_boundaries(state)[0]


def boundary_cells(state: SwarmState | Set[Cell]) -> Set[Cell]:
    """All robots lying on *some* boundary: those with a free 4-neighbor.

    This is the purely local membership test of the paper ("a robot can
    detect if it is located on some boundary ... but it does not know if it
    is the outer or an inner boundary").
    """
    occupied: Set[Cell] = (
        state.cells if isinstance(state, SwarmState) else set(state)
    )
    out: Set[Cell] = set()
    for c in occupied:
        for d in DIRECTIONS4:
            if add(c, d) not in occupied:
                out.add(c)
                break
    return out
