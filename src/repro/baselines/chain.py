"""Communication-chain shortening on the grid ([KM09] Hopper flavour).

The paper's lineage runs through chain problems: [DKLH06] shortens a
communication chain between two fixed stations in O(n^2 log n) FSYNC
rounds; the Hopper strategy of Kutylowski & Meyer auf der Heide [KM09]
achieves O(n) (optimal on the grid), and the closed-chain gathering
[ACLF+16] the paper builds on transfers those ideas to gathering.

This module implements a compact Hopper-flavoured chain shortener as a
context baseline (experiment E9): a chain ``v0 .. v_{m-1}`` of relay robots
with *fixed endpoints*; consecutive relays must stay 8-adjacent.  Each
FSYNC round, alternating-parity interior relays act (the classic trick to
keep simultaneous moves compatible):

* a relay whose two neighbors are 8-adjacent to each other (or coincide)
  is redundant and removes itself — the chain *shortens*;
* otherwise it hops toward the Manhattan midpoint of its neighbors,
  staying 8-adjacent to both.

The measured claim (E9): the number of rounds to reach a minimal chain
(length = Chebyshev distance of the endpoints + 1) grows linearly in the
initial chain length — the O(n) regime of [KM09], which the gathering
paper inherits.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.grid.geometry import Cell, chebyshev


def _adjacent8(a: Cell, b: Cell) -> bool:
    return chebyshev(a, b) <= 1


def _step_toward(src: Cell, dst: Cell) -> Cell:
    dx = (dst[0] > src[0]) - (dst[0] < src[0])
    dy = (dst[1] > src[1]) - (dst[1] < src[1])
    return (src[0] + dx, src[1] + dy)


class ChainShortener:
    """FSYNC Hopper-flavoured chain shortening with fixed endpoints."""

    def __init__(self, chain: Sequence[Cell]) -> None:
        chain = list(chain)
        if len(chain) < 2:
            raise ValueError("a chain needs at least its two endpoints")
        for a, b in zip(chain, chain[1:]):
            if not _adjacent8(a, b):
                raise ValueError(
                    f"chain links must be 8-adjacent; {a} -> {b} is not"
                )
        self.chain: List[Cell] = chain
        self.round_index = 0

    @property
    def optimal_length(self) -> int:
        """Minimal possible chain length between the fixed endpoints."""
        return chebyshev(self.chain[0], self.chain[-1]) + 1

    def is_minimal(self) -> bool:
        return len(self.chain) <= self.optimal_length

    def step(self) -> None:
        """One FSYNC round: interior relays of one parity act."""
        self.step_active(None)

    def step_active(self, mask: Optional[List[bool]]) -> List[bool]:
        """One round in which relay ``i`` may act only if ``mask[i]`` —
        the SSYNC subset-activation hook (``mask=None`` is the plain
        FSYNC round).  The acting relays are still parity-restricted, so
        any activation subset keeps simultaneous moves compatible.
        Returns the keep mask over the pre-round chain (``False`` =
        relay removed itself), which SSYNC drivers use to migrate their
        stable relay ids."""
        chain = self.chain
        parity = self.round_index % 2
        # Phase 1: redundant relays of this parity mark themselves.
        keep = [True] * len(chain)
        for i in range(1, len(chain) - 1):
            if i % 2 != parity:
                continue
            if mask is not None and not mask[i]:
                continue
            if keep[i - 1] and _adjacent8(chain[i - 1], chain[i + 1]):
                keep[i] = False
        new_chain = [c for c, k in zip(chain, keep) if k]
        new_mask = (
            None
            if mask is None
            else [m for m, k in zip(mask, keep) if k]
        )
        # Phase 2: surviving interior relays of this parity hop toward the
        # midpoint of their (post-removal) neighbors.
        result: List[Cell] = list(new_chain)
        for i in range(1, len(new_chain) - 1):
            if i % 2 != parity:
                continue
            if new_mask is not None and not new_mask[i]:
                continue
            prev_c, cur, nxt = new_chain[i - 1], new_chain[i], new_chain[i + 1]
            mid = ((prev_c[0] + nxt[0]) // 2, (prev_c[1] + nxt[1]) // 2)
            cand = _step_toward(cur, mid)
            if _adjacent8(cand, prev_c) and _adjacent8(cand, nxt):
                result[i] = cand
        self.chain = result
        self.round_index += 1
        return keep


def hairpin_chain(depth: int, width: int = 2) -> List[Cell]:
    """A long U-detour between nearby endpoints.

    The chain climbs ``depth`` cells, crosses ``width``, and comes back
    down; only the relays at the bend are ever redundant, so shortening
    must *propagate* along the arms — the workload that exhibits [KM09]'s
    linear-round regime (a zigzag collapses in O(1) rounds because all its
    detours are redundant simultaneously).
    """
    if depth < 1 or width < 1:
        raise ValueError("depth and width must be >= 1")
    up = [(0, y) for y in range(depth + 1)]
    across = [(x, depth) for x in range(1, width + 1)]
    down = [(width, y) for y in range(depth - 1, -1, -1)]
    return up + across + down


def zigzag_chain(steps: int, amplitude: int = 3) -> List[Cell]:
    """A detour-heavy chain between (0,0) and (steps, 0) for experiments."""
    if steps < 1 or amplitude < 1:
        raise ValueError("steps and amplitude must be >= 1")
    out: List[Cell] = [(0, 0)]
    x = 0
    while x < steps:
        for y in range(1, amplitude + 1):
            out.append((x, y))
        x += 1
        for y in range(amplitude, -1, -1):
            out.append((x, y))
    return out
