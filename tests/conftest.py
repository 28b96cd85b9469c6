"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import pytest

from repro.core.config import AlgorithmConfig
from repro.grid.occupancy import SwarmState


@pytest.fixture
def cfg() -> AlgorithmConfig:
    """The paper's default configuration."""
    return AlgorithmConfig()


@pytest.fixture
def small_cfg() -> AlgorithmConfig:
    """A small-radius configuration for tests that exercise locality limits."""
    return AlgorithmConfig(viewing_radius=8, max_bump_length=3)


def ring_cells(side: int, thickness: int = 1):
    from repro.swarms.generators import ring

    return ring(side, thickness)


@pytest.fixture
def ring12():
    return ring_cells(12)


@pytest.fixture
def simulate_cells():
    """``simulate()`` that also collects each round's sorted cells
    through ``on_round``: ``result, frames = simulate_cells(scenario,
    **kwargs)``."""
    from repro.api import simulate

    def run(scenario, **kwargs):
        frames = []
        result = simulate(
            scenario,
            on_round=lambda i, s: frames.append(tuple(sorted(s.cells))),
            **kwargs,
        )
        return result, frames

    return run


@pytest.fixture
def solid5() -> SwarmState:
    return SwarmState([(x, y) for x in range(5) for y in range(5)])
