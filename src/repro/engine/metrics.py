"""Per-round metric time-series.

The experiments need a handful of series per simulation: robot count,
merges per round, bounding-box diameter, and (for controllers that run
the paper's runs) the number of active runs.  ``MetricsLog`` collects
them and exports numpy arrays for the analysis layer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np


@dataclass(frozen=True)
class RoundMetrics:
    """Snapshot of swarm statistics after one round."""

    round_index: int
    robots: int
    merged: int
    #: Chebyshev diameter for grid workloads (int); the continuous
    #: Euclidean baseline records its float diameter here.
    diameter: float
    active_runs: Optional[int] = None


class MetricsLog:
    """Column-oriented collection of :class:`RoundMetrics`."""

    def __init__(self) -> None:
        self._rows: List[RoundMetrics] = []

    def record(self, row: RoundMetrics) -> None:
        self._rows.append(row)

    def __len__(self) -> int:
        return len(self._rows)

    def __getitem__(self, i: int) -> RoundMetrics:
        return self._rows[i]

    @property
    def rows(self) -> List[RoundMetrics]:
        return self._rows

    def series(self, name: str) -> np.ndarray:
        """One column as a numpy array (``np.nan`` for missing optionals)."""
        vals = [getattr(r, name) for r in self._rows]
        if any(v is None for v in vals):
            return np.array(
                [np.nan if v is None else v for v in vals], dtype=np.float64
            )
        return np.asarray(vals)

    def total_merged(self) -> int:
        """Total robots removed by merging over the whole simulation."""
        return int(sum(r.merged for r in self._rows))

    def rounds_without_merge(self) -> int:
        """Number of rounds in which no merge happened (reshapement-only
        rounds; bounded by the pipelining argument of Theorem 1)."""
        return sum(1 for r in self._rows if r.merged == 0)

    def summary(self) -> Dict[str, float]:
        """Headline statistics for tables."""
        if not self._rows:
            return {"rounds": 0, "merged": 0, "merge_rounds": 0}
        return {
            "rounds": float(self._rows[-1].round_index + 1),
            "merged": float(self.total_merged()),
            "merge_rounds": float(
                len(self._rows) - self.rounds_without_merge()
            ),
        }
