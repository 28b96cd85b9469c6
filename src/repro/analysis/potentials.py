"""Potential functions underpinning the termination argument.

DESIGN.md Section 3 argues termination via two monotone quantities:

* **robot count** — strictly decreases at every merge;
* **outer boundary perimeter** — never increased by reshapement folds
  (a fold at a convex corner changes the perimeter by ``2 - deg(target)
  <= 0``) nor by merges.

``track_potentials`` runs a simulation while recording both series;
``is_monotone_nonincreasing`` is the assertion the integration tests make.
A violation would mean some operation can undo progress — the precursor of
a livelock.

The outer enclosed area is recorded too, but it is no potential: a fold
can move a robot diagonally outward without changing the perimeter
(``ring(33)`` gains 1 cell of area at indices 188, 190 and 191), and on
``spiral_1027`` the area jumps by 1,748 when the arms close.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.core.algorithm import GatherOnGrid
from repro.core.config import AlgorithmConfig
from repro.engine.scheduler import RoundEngine
from repro.engine.termination import run_engine
from repro.grid.boundary import outer_boundary
from repro.grid.envelope import enclosed_area
from repro.grid.occupancy import SwarmState


@dataclass(frozen=True)
class PotentialTrace:
    """Per-round potential series of one simulation."""

    robots: List[int]
    perimeter: List[int]
    area: List[float]
    gathered: bool
    rounds: int


def track_potentials(
    cells,
    cfg: Optional[AlgorithmConfig] = None,
    *,
    max_rounds: Optional[int] = None,
) -> PotentialTrace:
    """Gather ``cells`` while recording robots/perimeter/area per round."""
    robots: List[int] = []
    perimeter: List[int] = []
    area: List[float] = []

    def snap(state: SwarmState) -> None:
        ob = outer_boundary(state)
        robots.append(len(state))
        perimeter.append(len(ob.sides))
        area.append(enclosed_area(ob))

    state = SwarmState(cells)
    snap(state)
    result = run_engine(
        RoundEngine(state, GatherOnGrid(cfg)),
        max_rounds=max_rounds,
        on_round=lambda i, s: snap(s),
    )
    return PotentialTrace(
        robots=robots,
        perimeter=perimeter,
        area=area,
        gathered=result.gathered,
        rounds=result.rounds,
    )


def is_monotone_nonincreasing(
    series: Sequence[float], tolerance: float = 0.0
) -> bool:
    """True iff the series never rises by more than ``tolerance``."""
    return all(b <= a + tolerance for a, b in zip(series, series[1:]))


def first_violation(
    series: Sequence[float], tolerance: float = 0.0
) -> Optional[int]:
    """Index of the first rise (for debugging), or None."""
    for i, (a, b) in enumerate(zip(series, series[1:])):
        if b > a + tolerance:
            return i + 1
    return None
