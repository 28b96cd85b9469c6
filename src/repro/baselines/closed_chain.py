"""Closed-chain gathering on the grid ([ACLF+16], the paper's launchpad).

The paper opens: "we use an idea from our gathering algorithm for a closed
chain [ACLF+16], yet drop the chain connectivity for sake of solving the
general gathering".  This module provides that predecessor system in
simplified form: ``n`` robots forming a **closed chain** (a cyclic sequence
where consecutive robots are 8-adjacent; several robots may share a cell),
to be gathered into a 2x2 square while every chain link stays intact.

Chain connectivity is *given by the problem*, so — unlike the general
grid-gathering — a robot always knows its two chain neighbors.  What
remains hard in FSYNC is symmetry: on a perfectly regular cycle all robots
look alike.  The original paper breaks symmetry with runner states; this
simplified reproduction uses the standard randomized alternative (each
robot draws an independent coin per round, and acts only if its chain
neighbors drew tails), which preserves the O(n)-rounds-in-expectation
behaviour we measure in experiment E10 and keeps the module compact.
Deviations are documented in DESIGN.md.

Operations per acting robot (both keep every chain link 8-adjacent):

* **contract** — if its two chain neighbors are 8-adjacent to each other
  (or coincide), the robot leaves the chain (splice); this is the merge
  analog: the chain shortens by one;
* **pull** — otherwise hop one cell toward the midpoint of the neighbors
  if 8-adjacency to both survives; this tightens slack like the paper's
  reshapement hops.
"""

from __future__ import annotations

import random
from typing import Iterable, List, Optional, Sequence

from repro.grid.geometry import Cell, chebyshev


def _adjacent8(a: Cell, b: Cell) -> bool:
    return chebyshev(a, b) <= 1


def _bounding_square(chain: Iterable[Cell]) -> int:
    xs = []
    ys = []
    for x, y in chain:
        xs.append(x)
        ys.append(y)
    return max(max(xs) - min(xs), max(ys) - min(ys))


class _ChainNode:
    """One chain robot as a node of a doubly-linked ring (the same
    persistent linked-ring idiom as :mod:`repro.grid.ring`): a
    contraction unlinks the node in O(1) instead of rebuilding the whole
    chain list, and node identities are stable across rounds."""

    __slots__ = ("cell", "prev", "next", "node_id")

    def __init__(self, cell: Cell, node_id: int) -> None:
        self.cell = cell
        self.node_id = node_id
        self.prev: "_ChainNode" = self
        self.next: "_ChainNode" = self


class ClosedChainGatherer:
    """FSYNC randomized gathering of a closed chain."""

    def __init__(self, chain: Sequence[Cell], *, seed: int = 0) -> None:
        cells = list(chain)
        if len(cells) < 3:
            raise ValueError("a closed chain needs at least 3 robots")
        n = len(cells)
        for i in range(n):
            if not _adjacent8(cells[i], cells[(i + 1) % n]):
                raise ValueError(
                    f"chain links must be 8-adjacent; index {i} is not"
                )
        nodes = [_ChainNode(c, i) for i, c in enumerate(cells)]
        for i, node in enumerate(nodes):
            nxt = nodes[(i + 1) % n]
            node.next = nxt
            nxt.prev = node
        self._head = nodes[0]
        self._size = n
        self.rng = random.Random(seed)
        self.round_index = 0

    @property
    def chain(self) -> List[Cell]:
        """The chain as a cell list, head first (compatibility view)."""
        out: List[Cell] = []
        node = self._head
        for _ in range(self._size):
            out.append(node.cell)
            node = node.next
        return out

    def _nodes(self) -> List[_ChainNode]:
        out: List[_ChainNode] = []
        node = self._head
        for _ in range(self._size):
            out.append(node)
            node = node.next
        return out

    def is_gathered(self) -> bool:
        return _bounding_square(self.chain) <= 1

    @property
    def node_ids(self) -> List[int]:
        """Stable per-robot ids, head first (SSYNC roster tokens)."""
        return [node.node_id for node in self._nodes()]

    def step(self, active_ids: Optional[set] = None) -> None:
        """One round: coin-selected robots contract or pull.

        ``active_ids`` restricts acting to the given node ids (SSYNC
        subset activation); ``None`` means every robot participates —
        the FSYNC round, unchanged.  Coins are part of the *algorithm*
        (every robot draws one each round, activated or not), so the RNG
        stream is independent of the scheduler's choices.
        """
        nodes = self._nodes()
        n = self._size
        coins = [self.rng.random() < 0.5 for _ in range(n)]
        # a robot acts iff it drew heads and both chain neighbors drew
        # tails — acting robots are pairwise non-adjacent along the chain,
        # so their moves/splices are compatible (and no acting robot's
        # neighbor is ever unlinked, keeping neighbor reads stable)
        acting = [
            coins[i] and not coins[(i - 1) % n] and not coins[(i + 1) % n]
            for i in range(n)
        ]
        if active_ids is not None:
            acting = [
                a and nodes[i].node_id in active_ids
                for i, a in enumerate(acting)
            ]
        # Phase 1: contractions — unlink the node (O(1) splice).
        size = n
        for i, node in enumerate(nodes):
            if not acting[i] or size <= 3:
                continue
            if _adjacent8(node.prev.cell, node.next.cell):
                node.prev.next = node.next
                node.next.prev = node.prev
                if node is self._head:
                    self._head = node.next
                size -= 1
        self._size = size
        # Phase 2: pulls on surviving acting robots — collect all targets
        # against the pre-pull cells, then apply (FSYNC simultaneity; the
        # read neighbors are non-acting, hence stationary).
        pulls: List[tuple[_ChainNode, Cell]] = []
        for i, node in enumerate(nodes):
            if not acting[i] or node.prev.next is not node:
                continue  # contracted away above
            prev_c = node.prev.cell
            cur = node.cell
            next_c = node.next.cell
            mid = ((prev_c[0] + next_c[0]) // 2, (prev_c[1] + next_c[1]) // 2)
            dx = (mid[0] > cur[0]) - (mid[0] < cur[0])
            dy = (mid[1] > cur[1]) - (mid[1] < cur[1])
            cand = (cur[0] + dx, cur[1] + dy)
            if (
                cand != cur
                and _adjacent8(cand, prev_c)
                and _adjacent8(cand, next_c)
            ):
                pulls.append((node, cand))
        for node, cand in pulls:
            node.cell = cand
        self.round_index += 1


def rectangle_chain(width: int, height: int) -> List[Cell]:
    """A closed chain tracing a width x height rectangle boundary."""
    if width < 2 or height < 2:
        raise ValueError("width and height must be >= 2")
    out: List[Cell] = []
    out += [(x, 0) for x in range(width)]
    out += [(width - 1, y) for y in range(1, height)]
    out += [(x, height - 1) for x in range(width - 2, -1, -1)]
    out += [(0, y) for y in range(height - 2, 0, -1)]
    return out
