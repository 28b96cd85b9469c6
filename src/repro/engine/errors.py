"""Error types raised by the simulation engines."""

from __future__ import annotations

from repro.errors import InvariantError

__all__ = [
    "InvariantError",
    "SimulationError",
    "ConnectivityViolation",
]


class SimulationError(RuntimeError):
    """Base class for engine failures."""


class ConnectivityViolation(SimulationError):
    """A round left the swarm disconnected.

    The paper's central safety property (Section 1: movements "must not harm
    the (only globally checkable) swarm connectivity").  The round engine
    raises this under FSYNC in ``check_connectivity`` mode, annotated
    with the round and the offending state, so tests fail loudly instead
    of drifting.
    """

    def __init__(self, round_index: int, n_components: int) -> None:
        super().__init__(
            f"swarm disconnected into {n_components} components "
            f"after round {round_index}"
        )
        self.round_index = round_index
        self.n_components = n_components

