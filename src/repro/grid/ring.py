"""Persistent linked-ring boundary contours: O(dirty-arc) maintenance.

:mod:`repro.grid.boundary` extracts contours as immutable tuple cycles;
rebuilding those tuples made every *changed* contour cost O(contour) per
round even under the incremental pipeline (``docs/incremental.md``
measured ring-family speedups stuck around 1.8x for exactly this reason).
This module keeps each contour as a **mutable doubly-linked ring** of
side nodes (:class:`RingNode`) with stable node identities, and repairs
it in place by re-tracing and splicing only the *dirty arc* — the
maximal span of nodes whose cells lie within Chebyshev distance 1 of a
cell whose occupancy flipped.

Invariants (see ``docs/incremental.md`` for the full catalogue):

* **Successor locality** — a side's successor under the contour walk of
  :func:`repro.grid.boundary._trace_cycle` reads only occupancy within
  Chebyshev distance 1 of the side's cell, so a *clean* node keeps its
  successor side verbatim and never needs revisiting.
* **Node stability** — nodes outside a spliced arc keep their identity
  (object and ``node_id``); a dirty side that survives a re-trace reuses
  its old node, so only genuinely new sides allocate.
* **Splice precondition** — an arc may be spliced iff the re-trace from
  the clean node before it reaches the clean node after it without
  crossing any other clean side.  Anything else (a contour splitting or
  merging, a trace overrunning its budget) falls back to a full rebuild
  — rare, and byte-identical to full extraction either way.
* **Canonical materialization** — :meth:`BoundaryRing.to_boundary`
  reproduces the exact frozen :class:`~repro.grid.boundary.Boundary` of
  :func:`~repro.grid.boundary.extract_boundaries`: the outer ring's head
  is pinned to the anchor side, inner heads to the lexicographically
  smallest side (tracked by a lazy min-heap), and the ring list is kept
  in canonical order.

Several loops below are manually inlined (no geometry helpers, no
per-step method calls): ``update`` and the occurrence walks run once per
dirty side / probe step of every round and are the profile's hottest
spots on contour-dominated swarms.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from typing import Dict, Iterable, Iterator, List, Optional, Set, Tuple

from repro.errors import InvariantError
from repro.grid.boundary import (
    Boundary,
    Side,
    _collapse,
    _outer_anchor_from_rows,
    _trace_cycle,
    outer_anchor,
)
from repro.grid.geometry import DIRECTIONS4, Cell
from repro.grid.occupancy import LineMasks, SwarmState


def _successor(occupied: Set[Cell], side: Side) -> Side:
    """One step of the contour walk (rule of ``_trace_cycle``, inlined)."""
    (cx, cy), (dx, dy) = side
    mx, my = -dy, dx  # rotate_ccw(d)
    ax, ay = cx + mx, cy + my
    if (ax, ay) not in occupied:
        return ((cx, cy), (mx, my))  # convex corner
    if (ax + dx, ay + dy) not in occupied:
        return ((ax, ay), (dx, dy))  # straight wall
    return ((ax + dx, ay + dy), (dy, -dx))  # concave corner


def _change_edge_count(cells: List[Cell]) -> int:
    """Number of consecutive pairs with different cells (non-cyclic)."""
    return sum(1 for a, b in zip(cells, cells[1:]) if a != b)


#: Initial spacing of the per-ring order labels.  Splices subdivide the
#: gap between their anchors; a fresh gap this wide absorbs ~20 nested
#: same-spot subdivisions before the ring is relabeled (O(ring), rare).
_ORDER_GAP = 1 << 20


class RingNode:
    """One boundary side as a node of a doubly-linked contour ring.

    ``node_id`` is stable for the node's lifetime; a side that survives a
    splice keeps its node (and id), so consumers may hold node references
    across rounds as long as the side itself persists.

    ``order`` is a per-ring *order label*: labels strictly increase along
    the ring except across exactly one "descent" edge, so the cyclic
    order of two nodes relative to any reference node is an O(1) label
    comparison (no walking).  Labels are maintained by ``RingSet`` on
    every splice; consumers (the start-site index) treat them as opaque
    sort keys that may be rewritten wholesale by a relabel.
    """

    __slots__ = ("cell", "normal", "prev", "next", "node_id", "ring", "order")

    def __init__(self, cell: Cell, normal: Cell, node_id: int) -> None:
        self.cell = cell
        self.normal = normal
        self.node_id = node_id
        self.prev: "RingNode" = self
        self.next: "RingNode" = self
        self.ring: Optional["BoundaryRing"] = None
        self.order: int = 0

    @property
    def side(self) -> Side:
        return (self.cell, self.normal)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RingNode(#{self.node_id} {self.cell}->{self.normal})"


class BoundaryRing:
    """One closed contour as a doubly-linked ring of side nodes.

    The *collapsed robot cycle* (consecutive same-cell sides merged, as in
    ``Boundary.robots``) is never materialized in steady state: consumers
    navigate it through occurrence heads — the first side node of each
    maximal same-cell side run — via :meth:`step` / :meth:`walk_heads`.
    ``len(ring)`` is the collapsed robot count, maintained incrementally.
    """

    __slots__ = (
        "ring_id",
        "is_outer",
        "head",
        "size",
        "_change_edges",
        "_minheap",
    )

    def __init__(self, ring_id: int, is_outer: bool, head: RingNode) -> None:
        self.ring_id = ring_id
        self.is_outer = is_outer
        self.head = head
        self.size = 0  # number of side nodes
        self._change_edges = 0  # cyclic side-to-side cell changes
        # Lazy canonical-min tracking (for inner-contour heads): None
        # until first needed after a splice; then a min-heap of sides
        # with dead entries skipped on query.  Cheaper than a cached
        # min-side: runners fold at corners, which is exactly where the
        # canonical min side lives, so a plain cache would be
        # invalidated (O(ring) recompute) nearly every round.
        self._minheap: Optional[List[Side]] = None

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        """Collapsed robot count (matches ``len(Boundary)``)."""
        if self._change_edges:
            return self._change_edges
        return 1 if self.size else 0

    def iter_nodes(self) -> Iterator[RingNode]:
        """All side nodes, head first, in contour order."""
        node = self.head
        for _ in range(self.size):
            yield node
            node = node.next

    # ------------------------------------------------------------------
    # Robot-cycle navigation (occurrence heads)
    # ------------------------------------------------------------------
    def occurrence_head(self, node: RingNode) -> RingNode:
        """First side node of ``node``'s maximal same-cell run."""
        if not self._change_edges:
            return node  # single-robot cycle: every node is the robot
        cell = node.cell
        while node.prev.cell == cell:
            node = node.prev
        return node

    def step(self, head: RingNode, direction: int) -> RingNode:
        """Occurrence head of the next robot along ``direction`` (+1/-1)."""
        if not self._change_edges:
            return head  # single-robot cycle: stepping stays in place
        if direction == 1:
            cell = head.cell
            node = head.next
            while node.cell == cell:
                node = node.next
            return node
        node = head.prev
        cell = node.cell
        while node.prev.cell == cell:
            node = node.prev
        return node

    def walk_heads(
        self, head: RingNode, direction: int, count: int
    ) -> List[RingNode]:
        """The next ``count`` occurrence heads from ``head`` (exclusive)
        along ``direction`` — one batched call instead of per-step
        :meth:`step` calls in the planner's probe loops."""
        out: List[RingNode] = []
        append = out.append
        if not self._change_edges:
            return [head] * count
        cur = head
        if direction == 1:
            for _ in range(count):
                cell = cur.cell
                cur = cur.next
                while cur.cell == cell:
                    cur = cur.next
                append(cur)
        else:
            for _ in range(count):
                cur = cur.prev
                cell = cur.cell
                while cur.prev.cell == cell:
                    cur = cur.prev
                append(cur)
        return out

    def behind_cell(self, head: RingNode, direction: int) -> Cell:
        """Cell of the boundary robot *behind* a run at ``head`` moving in
        ``direction`` (``robots[(pos - direction) % n]`` of the old tuple
        representation)."""
        return self.step(head, -direction).cell

    def robots_cycle(self) -> Tuple[Cell, ...]:
        """The collapsed robot cycle from the canonical head — exactly
        ``self.to_boundary().robots`` (O(contour); start rounds only)."""
        if not self.size:
            return ()
        first = self.occurrence_head(self.head)
        return tuple(
            [first.cell]
            + [n.cell for n in self.walk_heads(first, 1, len(self) - 1)]
        )

    def positions_map(self) -> Dict[RingNode, int]:
        """Occurrence head -> canonical cycle position (O(contour); used
        for start-round spacing and rare locate tie-breaks)."""
        out: Dict[RingNode, int] = {}
        if not self.size:
            return out
        cur = self.occurrence_head(self.head)
        out[cur] = 0
        for i, node in enumerate(self.walk_heads(cur, 1, len(self) - 1)):
            out[node] = i + 1
        return out

    # ------------------------------------------------------------------
    def to_boundary(self) -> Boundary:
        """Materialize the frozen tuple representation — byte-identical to
        the :func:`~repro.grid.boundary.extract_boundaries` output for the
        same configuration (canonical rotation preserved)."""
        sides = tuple((n.cell, n.normal) for n in self.iter_nodes())
        return Boundary(
            sides=sides,
            robots=_collapse([c for c, _ in sides]),
            is_outer=self.is_outer,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kind = "outer" if self.is_outer else "inner"
        return f"BoundaryRing(#{self.ring_id} {kind} sides={self.size})"


def _ring_sort_key(ring: BoundaryRing) -> Tuple[bool, Side]:
    head = ring.head
    return (not ring.is_outer, (head.cell, head.normal))


class RingSet:
    """All boundary contours of a swarm as persistent linked rings.

    ``rebuild`` constructs the rings from scratch (O(total sides));
    ``update`` repairs them in place from the cells whose occupancy
    changed since the last repair (one round's or several rounds' net
    change), splicing only dirty arcs (O(dirty arc) in steady state,
    with a full rebuild fallback on contour splits/merges).  Both leave
    the ring list in canonical order and every ring's head at its
    canonical start side, so materialization is byte-identical to full
    extraction.

    ``last_resplices`` records the incremental work of the latest update
    as ``(ring_id, arc_sides, removed_sides)`` triples; a full-rebuild
    fallback is recorded as ``ring_id == -1``.

    ``observer`` is an optional structural-change listener (duck-typed;
    used by :class:`repro.core.quasiline.StartSiteIndex`).  Callbacks:

    * ``on_rebuild(ring_set)`` — after any full (re)build; every prior
      node/ring reference is void (doomed rings, reseeded cycles and
      ring-id recycling never happen outside a rebuild's fresh ids, so
      observers reconcile ring lifecycles against ``rings`` lazily);
    * ``on_arc_spliced(ring, a, b, old_nodes, new_nodes)`` — after an
      update committed (structure and canonical order final): the arc
      strictly between the surviving anchors ``a`` and ``b`` was
      replaced, dropping ``old_nodes`` and linking in ``new_nodes``
      (which may reuse old node objects, possibly from other rings).

    Callbacks are intentionally O(arc): observers that derive cached
    values should record the reported nodes and recompute lazily.
    """

    def __init__(self) -> None:
        self.rings: List[BoundaryRing] = []
        self.node_of: Dict[Side, RingNode] = {}
        self.cell_nodes: Dict[Cell, List[RingNode]] = {}
        self.last_resplices: List[Tuple[int, int, int]] = []
        self.observer = None
        self._next_ring_id = 0
        self._next_node_id = 0
        self._primed = False

    @classmethod
    def from_cells(cls, cells: SwarmState | Iterable[Cell]) -> "RingSet":
        """Fresh ring set of a configuration (full extraction)."""
        occupied = (
            cells.cells if isinstance(cells, SwarmState) else set(cells)
        )
        rs = cls()
        rs.rebuild(occupied)
        return rs

    # ------------------------------------------------------------------
    def nodes_at(self, cell: Cell) -> List[RingNode]:
        """All side nodes anchored on ``cell`` (at most four)."""
        return self.cell_nodes.get(cell, [])

    # ------------------------------------------------------------------
    def _make_ring(
        self,
        trace: List[Side],
        *,
        is_outer: bool,
        head_side: Side,
        pool: Optional[Dict[Side, RingNode]] = None,
    ) -> BoundaryRing:
        """Build one ring from a traced cycle (ring_id assigned later)."""
        node_of = self.node_of
        cell_nodes = self.cell_nodes
        nid = self._next_node_id
        nodes: List[RingNode] = []
        append = nodes.append
        if pool:
            for side in trace:
                node = pool.pop(side, None)
                if node is None:
                    node = RingNode(side[0], side[1], nid)
                    nid += 1
                append(node)
        else:
            for cell, normal in trace:
                append(RingNode(cell, normal, nid))
                nid += 1
        self._next_node_id = nid
        ring = BoundaryRing(-1, is_outer, nodes[0])
        prev = nodes[-1]
        order = 0
        for node, side in zip(nodes, trace):
            prev.next = node
            node.prev = prev
            node.ring = ring
            node.order = order
            order += _ORDER_GAP
            node_of[side] = node
            cell_nodes.setdefault(side[0], []).append(node)
            prev = node
        ring.head = node_of[head_side]
        ring.size = len(trace)
        cells = [c for c, _ in trace]
        ring._change_edges = _change_edge_count(cells) + (
            cells[0] != cells[-1]
        )
        return ring

    def _min_node(self, ring: BoundaryRing) -> RingNode:
        """The node of the ring's lexicographically smallest side (lazy
        min-heap, built on first demand, dead entries skipped)."""
        heap = ring._minheap
        if heap is None:
            heap = [(n.cell, n.normal) for n in ring.iter_nodes()]
            heapify(heap)
            ring._minheap = heap
        node_of = self.node_of
        while heap:
            node = node_of.get(heap[0])
            if node is not None and node.ring is ring:
                return node
            heappop(heap)
        raise AssertionError("empty ring has no canonical side")

    def _unregister(self, node: RingNode) -> None:
        del self.node_of[(node.cell, node.normal)]
        lst = self.cell_nodes[node.cell]
        if len(lst) == 1:
            del self.cell_nodes[node.cell]
        else:
            lst.remove(node)

    @staticmethod
    def _relabel(ring: BoundaryRing, gap: int = _ORDER_GAP) -> None:
        """Reassign the ring's order labels with fresh gaps (follows the
        link structure, so it is safe mid-commit while ``ring.size`` is
        stale); only reached when nested splices exhausted a gap."""
        head = ring.head
        order = 0
        node = head
        while True:
            node.order = order
            order += gap
            node = node.next
            if node is head:
                break

    # ------------------------------------------------------------------
    def rebuild(self, occupied: Set[Cell]) -> List[BoundaryRing]:
        """Full extraction; resets every ring (fresh ring ids)."""
        if not occupied:
            raise ValueError("cannot extract boundaries of an empty swarm")
        self.rings = []
        self.node_of = {}
        self.cell_nodes = {}
        self.last_resplices = []
        all_sides = {
            (c, d)
            for c in occupied
            for d in DIRECTIONS4
            if (c[0] + d[0], c[1] + d[1]) not in occupied
        }
        anchor = outer_anchor(occupied)
        unvisited = set(all_sides)
        rings: List[BoundaryRing] = []
        # Outer first, then remaining cycles in deterministic side order.
        for start in [anchor, *sorted(all_sides)]:
            if start not in unvisited:
                continue
            trace = _trace_cycle(occupied, start)
            unvisited.difference_update(trace)
            is_outer = start == anchor
            rings.append(
                self._make_ring(
                    trace,
                    is_outer=is_outer,
                    head_side=anchor if is_outer else min(trace),
                )
            )
        rings.sort(key=_ring_sort_key)
        for ring in rings:
            ring.ring_id = self._next_ring_id
            self._next_ring_id += 1
        self.rings = rings
        self._primed = True
        if self.observer is not None:
            self.observer.on_rebuild(self)
        return list(rings)

    def _fallback(self, occupied: Set[Cell]) -> List[BoundaryRing]:
        total = sum(r.size for r in self.rings)
        out = self.rebuild(occupied)
        self.last_resplices = [(-1, sum(r.size for r in out), total)]
        return out

    # ------------------------------------------------------------------
    def update(
        self,
        occupied: Set[Cell],
        changed: Iterable[Cell],
        masks: Optional[LineMasks] = None,
    ) -> List[BoundaryRing]:
        """Repair the rings after the cells in ``changed`` flipped
        occupancy.  ``masks`` are the optional line masks of
        ``occupied`` (:meth:`SwarmState.masks`), for an O(#rows)
        outer-anchor lookup."""
        if not self._primed:
            return self.rebuild(occupied)
        changed = set(changed)
        self.last_resplices = []
        if not changed:
            return list(self.rings)
        dirty: Set[Cell] = set()
        add_dirty = dirty.add
        for x, y in changed:
            add_dirty((x - 1, y - 1))
            add_dirty((x - 1, y))
            add_dirty((x - 1, y + 1))
            add_dirty((x, y - 1))
            add_dirty((x, y))
            add_dirty((x, y + 1))
            add_dirty((x + 1, y - 1))
            add_dirty((x + 1, y))
            add_dirty((x + 1, y + 1))
        node_of = self.node_of
        cell_get = self.cell_nodes.get

        # One pass over the dirty cells: collect the *stale* nodes — side
        # no longer valid, or successor rewired on the new occupancy.  A
        # dirty node whose side and successor both survived is kept
        # as-is: folds rewire only a couple of sides, while their
        # Chebyshev-1 dirt halo covers a dozen, so this filter shrinks
        # the re-traced arcs severalfold.  ``seed_cells`` collects the
        # only cells that can carry a side of a brand-new, yet-uncovered
        # cycle: cells of removed (stale) nodes, newly occupied cells,
        # and occupied 4-neighbors of newly vacated cells — every new
        # side's cell is one of these, and an uncovered cycle consists
        # exclusively of new or removed sides.
        stale_nodes: List[RingNode] = []
        seed_cells: Set[Cell] = set()
        # reprolint: ok[D3] stale-node order is canonicalized below: the
        # per-ring groups are consumed as sets and arc starts are sorted
        # by node_id before any re-trace.
        for c in dirty:
            nodes = cell_get(c)
            if not nodes:
                continue
            if c not in occupied:
                stale_nodes.extend(nodes)  # cell vacated: sides gone
                continue
            cx, cy = c
            for node in nodes:
                dx, dy = node.normal
                if (cx + dx, cy + dy) in occupied:
                    stale_nodes.append(node)  # side filled in
                    seed_cells.add(c)
                    continue
                # side still valid: successor still the same?
                mx, my = -dy, dx
                ax, ay = cx + mx, cy + my
                if (ax, ay) not in occupied:
                    succ = ((cx, cy), (mx, my))
                elif (ax + dx, ay + dy) not in occupied:
                    succ = ((ax, ay), (dx, dy))
                else:
                    succ = ((ax + dx, ay + dy), (dy, -dx))
                nxt = node.next
                if succ != (nxt.cell, nxt.normal):
                    stale_nodes.append(node)
                    seed_cells.add(c)
        for c in changed:
            if c in occupied:
                seed_cells.add(c)
            else:
                x, y = c
                if (x + 1, y) in occupied:
                    seed_cells.add((x + 1, y))
                if (x, y + 1) in occupied:
                    seed_cells.add((x, y + 1))
                if (x - 1, y) in occupied:
                    seed_cells.add((x - 1, y))
                if (x, y - 1) in occupied:
                    seed_cells.add((x, y - 1))

        # ------------------------------------------------------ phase 1
        # Plan: find each affected ring's maximal dirty arcs and re-trace
        # them on the new occupancy.  No mutation yet: any structural
        # surprise (trace crossing a clean side, two arcs claiming one
        # side, budget overrun) aborts into the full-rebuild fallback.
        stale_set = set(stale_nodes)
        doomed: List[BoundaryRing] = []
        splices: List[
            Tuple[BoundaryRing, RingNode, RingNode, List[RingNode], List[Side]]
        ] = []
        claimed: Set[Side] = set()
        budget = 4 * len(dirty) + 16
        by_ring: Dict[int, List[RingNode]] = {}
        for node in stale_nodes:
            by_ring.setdefault(id(node.ring), []).append(node)
        for ring in self.rings:
            ring_dirty = by_ring.get(id(ring))
            if not ring_dirty:
                continue
            if len(ring_dirty) >= ring.size:
                doomed.append(ring)
                continue
            dset = set(ring_dirty)
            starts = sorted(
                (n for n in ring_dirty if n.prev not in dset),
                key=lambda n: n.node_id,
            )
            for start in starts:
                old_nodes = [start]
                cur = start
                while cur.next in dset:
                    cur = cur.next
                    old_nodes.append(cur)
                a, b = start.prev, cur.next  # clean anchors (b may be a)
                b_side = (b.cell, b.normal)
                new_sides: List[Side] = []
                (cx, cy), (dx, dy) = a.cell, a.normal
                while True:
                    # successor rule, inlined (see _successor)
                    mx, my = -dy, dx
                    ax, ay = cx + mx, cy + my
                    if (ax, ay) not in occupied:
                        dx, dy = mx, my
                    elif (ax + dx, ay + dy) not in occupied:
                        cx, cy = ax, ay
                    else:
                        cx, cy = ax + dx, ay + dy
                        dx, dy = dy, -dx
                    side = ((cx, cy), (dx, dy))
                    if side == b_side:
                        break
                    existing = node_of.get(side)
                    if existing is not None and existing not in stale_set:
                        return self._fallback(occupied)  # crossed clean side
                    if side in claimed or len(new_sides) >= budget:
                        return self._fallback(occupied)
                    claimed.add(side)
                    new_sides.append(side)
                splices.append((ring, a, b, old_nodes, new_sides))

        # ------------------------------------------------------ phase 2
        # Commit: unlink doomed rings and old arcs (pooling their nodes
        # for identity-preserving reuse), then splice the new arcs in.
        # A removed side that reappears in a planned arc keeps its node
        # *and* its node_of/cell_nodes registration — only genuinely new
        # or genuinely gone sides touch the indices.
        pool: Dict[Side, RingNode] = {}
        for ring in doomed:
            for node in ring.iter_nodes():
                side = (node.cell, node.normal)
                pool[side] = node
                if side not in claimed:
                    self._unregister(node)
        if doomed:
            doomed_set = set(doomed)
            rings = [r for r in self.rings if r not in doomed_set]
        else:
            rings = list(self.rings)
        for ring, a, _b, old_nodes, _new_sides in splices:
            head = ring.head
            for node in old_nodes:
                side = (node.cell, node.normal)
                pool[side] = node
                if side not in claimed:
                    self._unregister(node)
                if node is head:
                    # Never leave the head on an unlinked node: walks
                    # (phase 4's canonical-min recompute) start there.
                    ring.head = head = a
        affected: List[BoundaryRing] = []
        cell_nodes = self.cell_nodes
        nid = self._next_node_id
        pool_pop = pool.pop
        for ring, a, b, old_nodes, new_sides in splices:
            heap = ring._minheap
            # Order labels of the inserted arc.  If the cycle's single
            # label descent lies inside the replaced arc (a.order >=
            # b.order, including the a == b full-circle case), the
            # surviving path b..a ascends, so appending above a.order
            # keeps exactly one descent (Python ints never overflow).
            # Otherwise subdivide the (a.order, b.order) gap, relabeling
            # the whole ring first in the rare case nested splices have
            # exhausted it.
            m = len(new_sides)
            if m:
                if a.order < b.order and b.order - a.order <= m:
                    # Nested splices exhausted the (a, b) gap: relabel
                    # with fresh gaps.  The walk starts at ring.head, so
                    # afterwards a may legitimately label *above* b
                    # (head inside the b..a path) — that is exactly the
                    # descent-in-arc case handled below.
                    self._relabel(ring, max(_ORDER_GAP, 2 * (m + 1)))
                if a.order >= b.order:
                    base, step = a.order, _ORDER_GAP
                else:
                    base, step = a.order, (b.order - a.order) // (m + 1)
            order = 0
            prev = a
            for side in new_sides:
                node = pool_pop(side, None)
                if node is None:
                    node = RingNode(side[0], side[1], nid)
                    nid += 1
                    node_of[side] = node
                    cell_nodes.setdefault(side[0], []).append(node)
                node.ring = ring
                order += step
                node.order = base + order
                node.prev = prev
                prev.next = node
                if heap is not None:
                    heappush(heap, side)
                prev = node
            prev.next = b
            b.prev = prev
            ring.size += len(new_sides) - len(old_nodes)
            delta = 0
            pc = a.cell
            for node in old_nodes:
                c = node.cell
                if c != pc:
                    delta -= 1
                    pc = c
            if b.cell != pc:
                delta -= 1
            pc = a.cell
            for c, _ in new_sides:
                if c != pc:
                    delta += 1
                    pc = c
            if b.cell != pc:
                delta += 1
            ring._change_edges += delta
            affected.append(ring)
            self.last_resplices.append(
                (ring.ring_id, len(new_sides), len(old_nodes))
            )
        self._next_node_id = nid

        # ------------------------------------------------------ phase 3
        # Reseed: brand-new cycles (opened holes, re-created small rings)
        # start at free sides of the seed cells that no ring covers.
        # (No observer callback: a reseeded ring has a fresh ring_id, so
        # lazy consumers index it on first sight.)
        if seed_cells:
            maybe_seeds: List[Side] = []
            for c in sorted(seed_cells):
                x, y = c
                if (x + 1, y) not in occupied:
                    maybe_seeds.append((c, (1, 0)))
                if (x, y + 1) not in occupied:
                    maybe_seeds.append((c, (0, 1)))
                if (x - 1, y) not in occupied:
                    maybe_seeds.append((c, (-1, 0)))
                if (x, y - 1) not in occupied:
                    maybe_seeds.append((c, (0, -1)))
            for side in maybe_seeds:
                if side in node_of:
                    continue
                trace = _trace_cycle(occupied, side)
                if any(s in node_of for s in trace):
                    return self._fallback(occupied)  # merged into a ring
                ring = self._make_ring(
                    trace, is_outer=False, head_side=min(trace), pool=pool
                )
                ring.ring_id = self._next_ring_id
                self._next_ring_id += 1
                rings.append(ring)
                affected.append(ring)
                self.last_resplices.append((ring.ring_id, len(trace), 0))

        # ------------------------------------------------------ phase 4
        # Canonical bookkeeping: outer flag + anchor head, canonical heads
        # of affected inner rings, canonical list order.
        anchor = (
            _outer_anchor_from_rows(masks)
            if masks is not None and masks.rows
            else outer_anchor(occupied)
        )
        anchor_node = node_of.get(anchor)
        if anchor_node is None:
            return self._fallback(occupied)
        new_outer = anchor_node.ring
        if new_outer is None:
            raise InvariantError(
                f"anchor side {anchor} resolves to a detached ring node"
            )
        old_outer = next((r for r in rings if r.is_outer), None)
        if old_outer is not new_outer:
            if old_outer is not None:
                old_outer.is_outer = False
                old_outer.head = self._min_node(old_outer)
            new_outer.is_outer = True
        new_outer.head = anchor_node
        for ring in affected:
            if not ring.is_outer:
                ring.head = self._min_node(ring)
        rings.sort(key=_ring_sort_key)
        self.rings = rings
        observer = self.observer
        if observer is not None:
            for ring, a, b, old_nodes, new_sides in splices:
                observer.on_arc_spliced(
                    ring, a, b, old_nodes, [node_of[s] for s in new_sides]
                )
        return list(rings)

    # ------------------------------------------------------------------
    def to_boundaries(self) -> List[Boundary]:
        """Materialize every ring (for tests/analysis; O(total sides))."""
        return [r.to_boundary() for r in self.rings]
