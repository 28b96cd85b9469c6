"""Algorithm configuration.

The defaults are the paper's constants (Section 5, Lemma 3).  Every knob
exists for a reason documented on the field — most feed the ablation
experiments E5-E7 of DESIGN.md.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Mapping

from repro.constants import (
    MAX_BUMP_LENGTH,
    RUN_PASSING_DISTANCE,
    RUN_START_INTERVAL,
    VIEWING_RADIUS,
)

#: The three fields of the removed sharded-planning feature
#: (``shard_`` + planning/workers/backend).  Specs persisted while it
#: existed still carry them; :meth:`AlgorithmConfig.from_dict` drops
#: them on load.
_RETIRED_FIELDS = frozenset(
    "shard_" + name for name in ("planning", "workers", "backend")
)


@dataclass(frozen=True)
class AlgorithmConfig:
    """Tunable parameters of :class:`repro.core.algorithm.GatherOnGrid`."""

    #: L1 viewing radius (paper: 20).  Bounds merge pattern size, run
    #: crowding detection, and run termination rule 1.
    viewing_radius: int = VIEWING_RADIUS

    #: Rounds between run-start checks, the paper's ``L`` (paper: 22).
    run_start_interval: int = RUN_START_INTERVAL

    #: Boundary distance at which opposite runs start passing (paper: 3).
    run_passing_distance: int = RUN_PASSING_DISTANCE

    #: Maximum length ``k`` of a bump merge (paper Fig. 2; bounded by the
    #: viewing radius).  Ablation E7 sweeps this.
    max_bump_length: int = MAX_BUMP_LENGTH

    #: When False, runs may start only at round 0; disables the paper's
    #: pipelining (Section 4.2).  Ablation E6.
    pipelining: bool = True

    #: Enable the state-free bump merges (Fig. 2, k >= 1).  Ablations only;
    #: leaf merges stay on (a degree-1 robot hopping onto its only neighbor
    #: is the k=1 merge and is always safe).
    enable_bump_merges: bool = True

    #: Enable the state-free corner merges (convex corner onto occupied
    #: diagonal; the paper's small-k merges on solid material).
    enable_corner_merges: bool = True

    #: Enable run states entirely.  With runs off, mergeless swarms (rings,
    #: staircase corridors) stall — that is the paper's whole point, and
    #: ablation E6/E7 demonstrates it.
    enable_runs: bool = True

    #: Minimum straight stretch (number of forward steps in the same
    #: cardinal direction) required ahead of a corner for it to be a run
    #: start site.  The paper's quasi-line endpoints have 3 aligned robots,
    #: i.e. 2 straight steps; we follow Definition 1 with 2.
    start_straight_steps: int = 2

    #: Use the dirty-region incremental pipeline
    #: (:mod:`repro.core.incremental`): cache boundaries and merge
    #: candidates across rounds and rescan only changed neighborhoods.
    #: Trajectories are bit-identical with this on or off (the equivalence
    #: suite asserts it); the knob exists for A/B benchmarks and as an
    #: escape hatch.
    incremental: bool = True

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "AlgorithmConfig":
        """Rebuild a config from its ``dataclasses.asdict`` form.

        Persisted specs (sweep stores, service run records) written
        before sharded planning was removed carry its three retired
        keys; they are dropped here.  Any other unknown key still raises
        ``TypeError``.
        """
        kwargs = {k: v for k, v in data.items() if k not in _RETIRED_FIELDS}
        return cls(**kwargs)

    @classmethod
    def with_radius(
        cls, viewing_radius: int, **overrides
    ) -> "AlgorithmConfig":
        """A config for a non-default viewing radius with the dependent
        fields derived consistently: the maximum bump length is the
        largest ``k`` satisfying the locality budget ``2k + 2 <= r``
        (DESIGN.md Section 3), floored at the always-safe ``k = 1``.

        Extra keyword overrides are passed through (and may override the
        derived ``max_bump_length`` as well).
        """
        kwargs = {
            "viewing_radius": viewing_radius,
            "max_bump_length": max(1, (viewing_radius - 2) // 2),
        }
        kwargs.update(overrides)
        return cls(**kwargs)

    def __post_init__(self) -> None:
        if self.viewing_radius < 5:
            raise ValueError("viewing radius must be >= 5 (paper needs 11+)")
        if self.run_start_interval < 1:
            raise ValueError("run start interval must be >= 1")
        if self.run_passing_distance < 1:
            raise ValueError("run passing distance must be >= 1")
        if not 1 <= self.max_bump_length:
            raise ValueError("max bump length must be >= 1")
        if 2 * self.max_bump_length + 2 > self.viewing_radius:
            raise ValueError(
                "need 2*max_bump_length + 2 <= viewing_radius: every mover "
                "must locally verify adjacent patterns freezing its "
                "co-movers (DESIGN.md Section 3)"
            )
        if self.start_straight_steps < 1:
            raise ValueError("start_straight_steps must be >= 1")
