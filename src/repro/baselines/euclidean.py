"""Euclidean-plane local gathering baseline ([DKL+11], SPAA 2011).

The paper's headline O(n) is measured against this algorithm's tight
Theta(n^2) bound: n robots in the plane, unit viewing range, FSYNC; every
round each robot computes the **smallest enclosing circle** (SEC) of the
robots it sees and moves toward its center, clipping the step so that no
visibility edge breaks — the classic "go to center" of Ando et al. as
analyzed by Degener, Kempkes, Langner, Meyer auf der Heide, Pietrzyk and
Wattenhofer.

The SEC is computed with Welzl's randomized algorithm (expected linear
time).  The connectivity-preserving clip keeps the new position inside the
disk of radius 1/2 around the midpoint to every visible neighbor: if both
endpoints of an edge do this, their new distance is at most 1 (triangle
inequality), so the visibility graph never loses an edge.
"""

from __future__ import annotations

import math
import random
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import InvariantError

Point = Tuple[float, float]


# ----------------------------------------------------------------------
# Smallest enclosing circle (Welzl)
# ----------------------------------------------------------------------
def _circle_two(a: Point, b: Point) -> Tuple[Point, float]:
    cx = (a[0] + b[0]) / 2.0
    cy = (a[1] + b[1]) / 2.0
    r = math.hypot(a[0] - b[0], a[1] - b[1]) / 2.0
    return ((cx, cy), r)


def _circle_three(
    a: Point, b: Point, c: Point
) -> Optional[Tuple[Point, float]]:
    ax, ay = a
    bx, by = b
    cx, cy = c
    d = 2.0 * (ax * (by - cy) + bx * (cy - ay) + cx * (ay - by))
    if abs(d) < 1e-14:
        return None  # collinear
    ux = (
        (ax * ax + ay * ay) * (by - cy)
        + (bx * bx + by * by) * (cy - ay)
        + (cx * cx + cy * cy) * (ay - by)
    ) / d
    uy = (
        (ax * ax + ay * ay) * (cx - bx)
        + (bx * bx + by * by) * (ax - cx)
        + (cx * cx + cy * cy) * (bx - ax)
    ) / d
    r = math.hypot(ax - ux, ay - uy)
    return ((ux, uy), r)


def _in_circle(c: Optional[Tuple[Point, float]], p: Point) -> bool:
    if c is None:
        return False
    (cx, cy), r = c
    return math.hypot(p[0] - cx, p[1] - cy) <= r * (1.0 + 1e-12) + 1e-12


def smallest_enclosing_circle(
    points: Sequence[Point], seed: int = 0
) -> Tuple[Point, float]:
    """Welzl's move-to-front algorithm; expected O(len(points))."""
    pts = list(points)
    if not pts:
        raise ValueError("SEC of empty point set")
    rng = random.Random(seed)
    rng.shuffle(pts)
    circle: Optional[Tuple[Point, float]] = ((pts[0][0], pts[0][1]), 0.0)
    for i, p in enumerate(pts):
        if _in_circle(circle, p):
            continue
        circle = ((p[0], p[1]), 0.0)
        for j in range(i):
            q = pts[j]
            if _in_circle(circle, q):
                continue
            circle = _circle_two(p, q)
            for k in range(j):
                s = pts[k]
                if _in_circle(circle, s):
                    continue
                c3 = _circle_three(p, q, s)
                if c3 is not None:
                    circle = c3
                else:  # collinear: take the widest pair
                    best = circle
                    for pair in ((p, q), (p, s), (q, s)):
                        cand = _circle_two(*pair)
                        if cand[1] > best[1]:
                            best = cand
                    circle = best
    if circle is None:
        raise InvariantError(
            "minimum enclosing circle search ended with no candidate"
        )
    return circle


# ----------------------------------------------------------------------
# The FSYNC Euclidean swarm
# ----------------------------------------------------------------------
class EuclideanSwarm:
    """Positions + unit-disk visibility in the plane."""

    def __init__(self, positions: Sequence[Point], view_range: float = 1.0):
        self.pos = np.asarray(positions, dtype=np.float64)
        if self.pos.ndim != 2 or self.pos.shape[1] != 2:
            raise ValueError("positions must be an (n, 2) array-like")
        self.view_range = float(view_range)

    def __len__(self) -> int:
        return int(self.pos.shape[0])

    def visibility_lists(self) -> List[np.ndarray]:
        """Indices visible to each robot (including itself)."""
        diff = self.pos[:, None, :] - self.pos[None, :, :]
        dist2 = np.einsum("ijk,ijk->ij", diff, diff)
        vis = dist2 <= self.view_range**2 + 1e-12
        return [np.nonzero(vis[i])[0] for i in range(len(self))]

    def diameter(self) -> float:
        diff = self.pos[:, None, :] - self.pos[None, :, :]
        return float(np.sqrt(np.einsum("ijk,ijk->ij", diff, diff).max()))

    def is_connected(self) -> bool:
        """Unit-disk graph connectivity (BFS)."""
        n = len(self)
        if n <= 1:
            return True
        lists = self.visibility_lists()
        seen = {0}
        stack = [0]
        while stack:
            i = stack.pop()
            for j in lists[i]:
                if int(j) not in seen:
                    seen.add(int(j))
                    stack.append(int(j))
        return len(seen) == n


class GoToCenterGatherer:
    """One FSYNC round of the [DKL+11] go-to-center algorithm."""

    def __init__(self, step_cap: float = math.inf) -> None:
        #: Optional cap on per-round movement (the model allows bounded
        #: movement; infinite means "move as far as the clip allows").
        self.step_cap = step_cap

    def step(
        self, swarm: EuclideanSwarm, active: Optional[set] = None
    ) -> None:
        """One round.  ``active`` restricts the look-compute-move cycle
        to the given robot indices (SSYNC subset activation); ``None``
        means everyone acts — the FSYNC round, unchanged.  Robots not in
        ``active`` keep their position; the connectivity clip of acting
        robots still accounts for every visible neighbor, so no
        visibility edge breaks under any activation subset."""
        pos = swarm.pos
        lists = swarm.visibility_lists()
        new = pos.copy()
        for i, vis in enumerate(lists):
            if active is not None and i not in active:
                continue
            pts = [tuple(pos[j]) for j in vis]
            (cx, cy), _ = smallest_enclosing_circle(pts, seed=i)
            target = np.array([cx, cy])
            p = pos[i]
            step = target - p
            norm = float(np.hypot(*step))
            if norm > self.step_cap:
                step = step * (self.step_cap / norm)
            cand = p + step
            # Clip into every midpoint disk so no visibility edge breaks.
            for j in vis:
                if j == i:
                    continue
                mid = (p + pos[j]) / 2.0
                d = cand - mid
                dist = float(np.hypot(*d))
                limit = swarm.view_range / 2.0
                if dist > limit:
                    cand = mid + d * (limit / dist)
            new[i] = cand
        swarm.pos = new


def worst_case_circle(n: int) -> List[Point]:
    """[DKL+11]'s tight instance: ``n`` robots on a circle sized so that
    only immediate neighbors see each other (unit visibility)."""
    r = n * 0.9 / (2 * math.pi)
    return [
        (
            r * math.cos(2 * math.pi * i / n),
            r * math.sin(2 * math.pi * i / n),
        )
        for i in range(n)
    ]
