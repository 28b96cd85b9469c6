"""Swarm occupancy state.

Robots are indistinguishable and merge when they share a cell (paper
Section 1), so the canonical state of the world is simply the *set* of
occupied cells.  :class:`SwarmState` wraps that set with the queries the
algorithm and the engines need, plus a bulk synchronous move application that
implements merge-on-collision.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Dict, FrozenSet, Iterable, Iterator, Mapping, Set

import numpy as np

from repro.grid.geometry import (
    Cell,
    bounding_box,
    chebyshev,
    neighbors4,
    neighbors8,
)


#: Free bits kept below the swarm's lowest row and column when
#: :class:`LineMasks` is built: a cell may step this far below the swarm
#: before the masks need a new origin.
MASK_MARGIN = 2


class LineMasks:
    """The occupancy as one Python-int bitmask per occupied row and column.

    Bit ``x - x0`` of ``rows[y]`` is set iff ``(x, y)`` is occupied, and
    bit ``y - y0`` of ``cols[x]`` likewise; a line without robots has no
    entry.  The origin ``(x0, y0)`` is fixed at build time
    ``MASK_MARGIN`` below the swarm's lowest column and row, so a mask is
    as wide as the swarm whatever its absolute coordinates.  Neighbour
    lines shift into place (``rows[y] >> 1`` marks the cells whose east
    neighbour is occupied): the merge cache derives every merge
    candidate that way (:class:`repro.core.patterns.MergeCache`).
    """

    __slots__ = ("rows", "cols", "x0", "y0")

    def __init__(self, cells: Set[Cell]) -> None:
        # Tuples order by x first, so min() finds the lowest column.
        self.x0 = min(cells, default=(0, 0))[0] - MASK_MARGIN
        self.y0 = min(map(itemgetter(1), cells), default=0) - MASK_MARGIN
        rows: Dict[int, int] = {}
        cols: Dict[int, int] = {}
        x0, y0 = self.x0, self.y0
        for x, y in cells:
            rows[y] = rows.get(y, 0) | (1 << (x - x0))
            cols[x] = cols.get(x, 0) | (1 << (y - y0))
        self.rows = rows
        self.cols = cols

    def flip(self, changed: Iterable[Cell]) -> bool:
        """Toggle the bits of the cells whose occupancy flipped; False
        (and the masks left part-flipped) if a cell lies below the
        origin, so the caller must build new masks."""
        rows, cols, x0, y0 = self.rows, self.cols, self.x0, self.y0
        for x, y in changed:
            if x < x0 or y < y0:
                return False
            r = rows.get(y, 0) ^ (1 << (x - x0))
            if r:
                rows[y] = r
            else:
                del rows[y]
            c = cols.get(x, 0) ^ (1 << (y - y0))
            if c:
                cols[x] = c
            else:
                del cols[x]
        return True


class SwarmState:
    """The set of occupied grid cells, with neighborhood queries.

    The class is mutable (``apply_moves`` advances it in place) but exposes
    ``frozen()`` snapshots for logging and hashing.  All queries are O(1)
    set lookups; bulk operations are O(n).

    ``apply_moves`` additionally records the *dirty region* of the round —
    ``last_changed`` holds every cell whose occupancy flipped (vacated or
    newly occupied), and ``version`` counts applications — so incremental
    consumers (:mod:`repro.core.incremental`, the engine's localized
    connectivity check) can restrict their per-round work to the
    neighborhoods that actually moved.
    """

    __slots__ = ("_cells", "last_changed", "version", "_masks", "_bbox")

    def __init__(self, cells: Iterable[Cell] = ()) -> None:
        self._cells: Set[Cell] = set(cells)
        for c in self._cells:
            if len(c) != 2 or not all(isinstance(v, int) for v in c):
                raise TypeError(f"cells must be (int, int) tuples, got {c!r}")
        #: Cells whose occupancy flipped in the last ``apply_moves``.
        self.last_changed: FrozenSet[Cell] = frozenset()
        #: Number of move applications performed on this state.
        self.version: int = 0
        # Line masks, built on first use and then flipped from
        # ``last_changed``; the bounding box, cached as (version, box).
        self._masks: LineMasks | None = None
        self._bbox: tuple | None = None

    @classmethod
    def from_validated(cls, cells: Set[Cell]) -> "SwarmState":
        """Wrap an already-validated cell set without re-checking each cell.

        The per-cell isinstance validation in ``__init__`` is O(n) and shows
        up in profiles when states are copied in hot loops (sweeps, engine
        snapshots).  Callers must pass a *fresh* ``set`` of ``(int, int)``
        tuples — the set is adopted, not copied.
        """
        obj = cls.__new__(cls)
        obj._cells = cells
        obj.last_changed = frozenset()
        obj.version = 0
        obj._masks = None
        obj._bbox = None
        return obj

    # ------------------------------------------------------------------
    # Basic queries
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._cells)

    def __iter__(self) -> Iterator[Cell]:
        return iter(self._cells)

    def __contains__(self, cell: Cell) -> bool:
        return cell in self._cells

    def __eq__(self, other: object) -> bool:
        if isinstance(other, SwarmState):
            return self._cells == other._cells
        return NotImplemented

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SwarmState(n={len(self._cells)})"

    @property
    def cells(self) -> Set[Cell]:
        """Direct (mutable) access to the occupied-cell set.

        Exposed for the engines; algorithm code should treat it read-only.
        """
        return self._cells

    def frozen(self) -> FrozenSet[Cell]:
        """An immutable snapshot of the occupied cells."""
        return frozenset(self._cells)

    def copy(self) -> "SwarmState":
        """An independent copy of this state (validated fast path)."""
        return SwarmState.from_validated(set(self._cells))

    # ------------------------------------------------------------------
    # Line masks (lazily built, flipped in place)
    # ------------------------------------------------------------------
    def masks(self) -> LineMasks:
        """The per-row and per-column occupancy bitmasks.

        Built on first use, then kept in sync by ``apply_moves`` and
        ``move_robot`` (O(changed) bit flips); a cell landing below the
        origin retires the object, and the next call builds a new one
        around the current swarm.  Consumers that cache values derived
        from the masks compare the returned object by identity to tell
        a flip from a rebuild.
        """
        if self._masks is None:
            self._masks = LineMasks(self._cells)
        return self._masks

    def _flip_masks(self, changed: Iterable[Cell]) -> None:
        if self._masks is not None and not self._masks.flip(changed):
            self._masks = None

    # ------------------------------------------------------------------
    # Neighborhood queries (4-neighborhood = connectivity, paper Section 1)
    # ------------------------------------------------------------------
    def occupied_neighbors4(self, cell: Cell) -> tuple[Cell, ...]:
        """Occupied cardinal neighbors of ``cell``."""
        occ = self._cells
        return tuple(n for n in neighbors4(cell) if n in occ)

    def occupied_neighbors8(self, cell: Cell) -> tuple[Cell, ...]:
        """Occupied 8-neighbors of ``cell``."""
        occ = self._cells
        return tuple(n for n in neighbors8(cell) if n in occ)

    def degree(self, cell: Cell) -> int:
        """Number of occupied cardinal neighbors (connectivity degree)."""
        occ = self._cells
        x, y = cell
        return (
            ((x + 1, y) in occ)
            + ((x, y + 1) in occ)
            + ((x - 1, y) in occ)
            + ((x, y - 1) in occ)
        )

    def is_boundary(self, cell: Cell) -> bool:
        """A robot is on *some* boundary iff it has an unconnected side
        (paper Section 1: "the boundaries consist of all robots who have at
        least one unconnected side")."""
        return cell in self._cells and self.degree(cell) < 4

    # ------------------------------------------------------------------
    # Geometry
    # ------------------------------------------------------------------
    def bounding_box(self) -> tuple[int, int, int, int]:
        """Axis-aligned bounding box of the swarm.

        The extreme keys of the line masks, O(#rows + #cols) and cached
        per ``version``: the engine queries the box twice per round
        (termination + metrics), and an O(n) scan there was one of the
        last full-swarm walks per round.
        """
        if not self._cells:
            return bounding_box(self._cells)  # raises ValueError
        if self._bbox is not None and self._bbox[0] == self.version:
            return self._bbox[1]
        m = self.masks()
        box = (min(m.cols), min(m.rows), max(m.cols), max(m.rows))
        self._bbox = (self.version, box)
        return box

    def diameter_chebyshev(self) -> int:
        """Chebyshev diameter of the swarm (0 for a single robot)."""
        if not self._cells:
            raise ValueError("diameter of empty swarm")
        min_x, min_y, max_x, max_y = self.bounding_box()
        return max(max_x - min_x, max_y - min_y)

    def is_gathered(self, square: int = 2) -> bool:
        """True when all robots fit in a ``square`` x ``square`` area
        (paper Section 3.2: gathering is finished in a 2x2 square, since that
        configuration cannot be simplified further in the FSYNC model)."""
        if not self._cells:
            return True
        min_x, min_y, max_x, max_y = self.bounding_box()
        return (max_x - min_x) < square and (max_y - min_y) < square

    def to_array(self) -> np.ndarray:
        """The occupied cells as an ``(n, 2)`` int array (sorted, for
        deterministic downstream numpy analysis)."""
        if not self._cells:
            return np.empty((0, 2), dtype=np.int64)
        return np.array(sorted(self._cells), dtype=np.int64)

    # ------------------------------------------------------------------
    # Synchronous move application
    # ------------------------------------------------------------------
    def apply_moves(self, moves: Mapping[Cell, Cell]) -> int:
        """Apply a set of simultaneous robot moves; co-located robots merge.

        ``moves`` maps *source* cells (must be occupied) to *target* cells.
        Targets must be within one 8-neighbor hop (paper's movement model).
        Robots not mentioned stay put.  After application, any cell holding
        more than one robot holds exactly one (merge-on-collision).

        Returns the number of robots removed by merging this round.

        Side effect: ``last_changed`` is set to the cells whose occupancy
        flipped (sources left empty plus targets newly filled) and
        ``version`` is bumped — the dirty region the incremental pipeline
        keys its caches on.
        """
        if not moves:
            self.last_changed = frozenset()
            self.version += 1
            return 0
        cells = self._cells
        for src, dst in moves.items():
            if src not in cells:
                raise KeyError(f"move source {src} is not occupied")
            if chebyshev(src, dst) > 1:
                raise ValueError(
                    f"illegal move {src} -> {dst}: farther than one hop"
                )
        before = len(cells)
        targets = set(moves.values())
        # Mutate in place (O(moved), not O(n)): a vacated source is a
        # changed cell unless some robot moves onto it; a target is
        # changed unless it was already occupied before the round.
        changed = frozenset(
            [src for src in moves if src not in targets]
            + [dst for dst in targets if dst not in cells]
        )
        for src in moves:
            cells.discard(src)
        cells |= targets
        self.last_changed = changed
        self._flip_masks(changed)
        self.version += 1
        return before - len(cells)

    def move_robot(self, src: Cell, dst: Cell) -> bool:
        """Move a single robot (sequential/ASYNC semantics); True on merge.

        ``src`` must be occupied; ``dst`` may equal ``src`` (no-op) and,
        unlike ``apply_moves``, range checking is the caller's job.  Keeps
        the line masks and dirty tracking coherent — sequential engines
        must use this instead of mutating ``cells`` directly.
        """
        if dst == src:
            return False
        cells = self._cells
        cells.discard(src)
        merged = dst in cells
        if not merged:
            cells.add(dst)
        self.last_changed = (
            frozenset((src,)) if merged else frozenset((src, dst))
        )
        self._flip_masks(self.last_changed)
        self.version += 1
        return merged
