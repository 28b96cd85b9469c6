"""Connectivity analysis of swarm states.

The paper's swarms are connected in the 4-neighborhood sense and every
operation must preserve that (it is "the only globally checkable" property,
Section 1).  The engines check it after every round:
:func:`locally_connected_after` certifies a round from its changed cells
in O(changed), and only when that certificate is inconclusive do they run
the full O(n) BFS of :func:`connected_components`.  :func:`is_connected`
is the plain BFS yes/no for any cell set; :func:`articulation_cells`
supports tests and the safety analysis of merge patterns.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Set

from repro.grid.geometry import DIRECTIONS8, Cell, neighbors4


def connected_components(cells: Iterable[Cell]) -> List[Set[Cell]]:
    """Partition ``cells`` into 4-connected components (BFS, O(n))."""
    remaining: Set[Cell] = set(cells)
    components: List[Set[Cell]] = []
    while remaining:
        seed = next(iter(remaining))
        comp: Set[Cell] = {seed}
        frontier = [seed]
        remaining.discard(seed)
        while frontier:
            cur = frontier.pop()
            for nb in neighbors4(cur):
                if nb in remaining:
                    remaining.discard(nb)
                    comp.add(nb)
                    frontier.append(nb)
        components.append(comp)
    return components


def _leaves_neighbors_connected(mask: int) -> bool:
    """Whether a cell can leave without disconnecting anything, given its
    8-neighborhood occupancy (bit ``i`` of ``mask`` marks
    ``DIRECTIONS8[i]``): true when its occupied 4-neighbors lie in one
    4-component of the 8-neighborhood, so every path through the cell
    has a detour inside its 3x3 window."""
    near = [DIRECTIONS8[i] for i in range(8) if mask >> i & 1]
    touching = [
        comp
        for comp in connected_components(near)
        if any(dx == 0 or dy == 0 for dx, dy in comp)
    ]
    return len(touching) <= 1


#: ``_DELETABLE[mask]`` is :func:`_leaves_neighbors_connected` (mask).
_DELETABLE = tuple(_leaves_neighbors_connected(m) for m in range(256))


def locally_connected_after(cells: Set[Cell], changed: Iterable[Cell]) -> bool:
    """Sound O(changed) re-check of connectivity after one round's moves.

    ``cells`` is the post-move occupancy and ``changed`` the cells whose
    occupancy flipped; the pre-move occupancy ``cells - added + vacated``
    must be 4-connected.  Returns True only when connectivity is
    *proven*; False means "inconclusive — run the full BFS", never
    "disconnected".

    The proof replays the round from the pre-move occupancy in steps that
    each keep it connected.  Every added cell attaches through a
    4-neighbor that is pre-move occupied or already attached.  Then the
    vacated cells leave one at a time in sorted order, each only when its
    occupied 4-neighbors stay connected inside its 3x3 window without it
    (a ``_DELETABLE`` lookup over ``cells`` plus the vacated cells still
    present).  A cell that fails is parked and re-tested whenever a
    vacated 8-neighbor leaves, so none is tested more than nine times.
    A cell still parked at the end, or an added cell that cannot attach,
    makes the answer inconclusive.  docs/incremental.md gives the
    soundness argument.
    """
    added: Set[Cell] = set()
    pending: Set[Cell] = set()  # vacated cells not yet deleted
    for c in changed:
        (added if c in cells else pending).add(c)

    attached: Set[Cell] = set()
    for a in added:
        x, y = a
        for nb in ((x + 1, y), (x, y + 1), (x - 1, y), (x, y - 1)):
            if nb in pending or (nb in cells and nb not in added):
                attached.add(a)
                break
    if len(attached) < len(added):
        frontier = set(attached)
        while frontier:
            for nb in neighbors4(frontier.pop()):
                if nb in added and nb not in attached:
                    attached.add(nb)
                    frontier.add(nb)
        if len(attached) < len(added):
            return False  # new cells not attached to the pre-move swarm

    parked: Set[Cell] = set()
    for start in sorted(pending):
        work = [start]
        while work:
            c = work.pop()
            x, y = c
            l, r, d, u = x - 1, x + 1, y - 1, y + 1
            # Bits in DIRECTIONS8 order, unrolled: this is the hot loop.
            mask = (
                ((n := (r, y)) in cells or n in pending)
                | ((n := (x, u)) in cells or n in pending) << 1
                | ((n := (l, y)) in cells or n in pending) << 2
                | ((n := (x, d)) in cells or n in pending) << 3
                | ((n := (r, u)) in cells or n in pending) << 4
                | ((n := (l, u)) in cells or n in pending) << 5
                | ((n := (l, d)) in cells or n in pending) << 6
                | ((n := (r, d)) in cells or n in pending) << 7
            )
            if not _DELETABLE[mask]:
                parked.add(c)
                continue
            pending.discard(c)
            if parked:
                for dx, dy in DIRECTIONS8:
                    nb = (x + dx, y + dy)
                    if nb in parked:
                        parked.discard(nb)
                        work.append(nb)
    return not parked


def is_connected(cells: Iterable[Cell]) -> bool:
    """True iff the cell set forms one 4-connected component.

    The empty set and singletons are connected by convention.
    """
    cell_set: Set[Cell] = set(cells)
    if len(cell_set) <= 1:
        return True
    seed = next(iter(cell_set))
    seen: Set[Cell] = {seed}
    frontier = [seed]
    while frontier:
        cur = frontier.pop()
        for nb in neighbors4(cur):
            if nb in cell_set and nb not in seen:
                seen.add(nb)
                frontier.append(nb)
    return len(seen) == len(cell_set)


def articulation_cells(cells: Iterable[Cell]) -> Set[Cell]:
    """Cells whose removal disconnects the swarm (cut vertices).

    Standard Hopcroft-Tarjan DFS on the 4-adjacency graph, iterative to
    survive deep swarms (a 10k-robot line would blow the recursion limit).
    Used by tests to verify that merge/fold operations never move a robot
    whose presence is load-bearing without a replacement path.
    """
    cell_set: Set[Cell] = set(cells)
    if len(cell_set) <= 2:
        return set()

    index: Dict[Cell, int] = {}
    low: Dict[Cell, int] = {}
    parent: Dict[Cell, Cell] = {}
    arts: Set[Cell] = set()
    counter = 0

    # reprolint: ok[D3] the result is the articulation *set*, which is
    # unique for a given occupancy; root order only shapes the DFS tree.
    for root in cell_set:
        if root in index:
            continue
        root_children = 0
        # stack holds (cell, iterator over its occupied neighbors)
        index[root] = low[root] = counter
        counter += 1
        stack = [(root, iter([n for n in neighbors4(root) if n in cell_set]))]
        while stack:
            cell, it = stack[-1]
            advanced = False
            for nb in it:
                if nb not in index:
                    parent[nb] = cell
                    if cell == root:
                        root_children += 1
                    index[nb] = low[nb] = counter
                    counter += 1
                    nbs = [m for m in neighbors4(nb) if m in cell_set]
                    stack.append((nb, iter(nbs)))
                    advanced = True
                    break
                elif parent.get(cell) != nb:
                    if index[nb] < low[cell]:
                        low[cell] = index[nb]
            if not advanced:
                stack.pop()
                if stack:
                    pcell = stack[-1][0]
                    if low[cell] < low[pcell]:
                        low[pcell] = low[cell]
                    if pcell != root and low[cell] >= index[pcell]:
                        arts.add(pcell)
        if root_children > 1:
            arts.add(root)
    return arts
