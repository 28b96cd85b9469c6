"""Baseline algorithms the paper positions itself against.

* :mod:`repro.baselines.euclidean` — the local go-to-center-of-smallest-
  enclosing-circle gathering in the Euclidean plane of [DKL+11]
  (SPAA 2011), whose tight Theta(n^2) FSYNC round bound is the reference
  point of the paper's O(n) headline (experiment E2);
* :mod:`repro.baselines.global_grid` — a global-vision grid gatherer in the
  spirit of [SN14]: all robots move toward the center of the smallest
  enclosing rectangle (experiment E4);
* :mod:`repro.baselines.async_greedy` — the "simple strategy" the paper's
  introduction says achieves O(n) rounds under a fair ASYNC scheduler
  (experiment E3);
* :mod:`repro.baselines.chain` — [KM09] Hopper-flavoured communication
  chain shortening, the lineage of the paper's linear-time machinery
  (experiment E9);
* :mod:`repro.baselines.closed_chain` — the paper's direct predecessor:
  closed-chain gathering [ACLF+16], simplified (experiment E10).
"""

from repro.baselines.euclidean import (
    EuclideanSwarm,
    GoToCenterGatherer,
    smallest_enclosing_circle,
    worst_case_circle,
)
from repro.baselines.global_grid import GlobalVisionGatherer
from repro.baselines.async_greedy import AsyncGreedyGatherer
from repro.baselines.chain import ChainShortener, hairpin_chain, zigzag_chain
from repro.baselines.closed_chain import ClosedChainGatherer, rectangle_chain

__all__ = [
    "EuclideanSwarm",
    "GoToCenterGatherer",
    "smallest_enclosing_circle",
    "worst_case_circle",
    "GlobalVisionGatherer",
    "AsyncGreedyGatherer",
    "ChainShortener",
    "hairpin_chain",
    "zigzag_chain",
    "ClosedChainGatherer",
    "rectangle_chain",
]
