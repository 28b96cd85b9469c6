"""Incremental per-round pipeline: dirty-region restricted rescans.

The seed implementation re-walked the whole swarm every round — boundary
extraction, merge-pattern enumeration, and the connectivity safety check
were each O(n) — so simulating the paper's O(n)-round algorithm cost
O(n^2) wall-clock.  This module restricts the per-round work to the *dirty
region*: the cells whose occupancy flipped in the last round plus their
8-neighborhoods, as recorded by
:meth:`repro.grid.occupancy.SwarmState.apply_moves`.

**What "dirty" means.**  A cell is dirty for a cache iff some cell within
Chebyshev distance 1 of it changed occupancy since that cache was last
repaired: the previous round's moves for the merge cache, the net change
since the last ring repair for the rings.  Every predicate the pipeline
caches (contour side successors, bump-run membership and free sides,
leaf/corner arity) reads only cells within Chebyshev distance 1 of its
anchor cell — or, for bump rows/columns, only the three-line band around
its line — so a cached value whose anchor is not dirty is still exact.
See ``docs/incremental.md`` for the invariant catalogue and the equality
argument.

**Boundaries are persistent linked rings.**  Contours live in a
:class:`repro.grid.ring.RingSet`: on each repair, only the *dirty arcs*
of affected rings are re-traced and spliced in place (O(dirty arc)),
instead of rebuilding whole ``Boundary`` tuples per changed cycle
(O(contour)).
Ring consumers (run location, run planning, start sites) navigate stable
:class:`~repro.grid.ring.RingNode` references; the frozen-tuple
``Boundary`` remains available through ``to_boundary()`` for analysis and
the equivalence suite.

**Bit-identical by construction.**  The merge cache returns exactly the
moves of the full scan, the rings reproduce its boundary *sets*, and
every consumer of those (run location, run planning, move composition)
is order-insensitive or consumes canonically ordered input, so
trajectories (moves, rounds, merges, events) are identical with the
pipeline on or off — ``tests/test_incremental_equivalence.py`` asserts
this against golden traces captured from the seed implementation.

**Rings are repaired on demand.**  Merges are state-free local
patterns, so only a live run or a due run start reads the contours.  The
merge cache is synced every round; the ring set only when
:meth:`IncrementalPipeline.contours` or
:meth:`IncrementalPipeline.start_sites` asks for it.  Until then the
pipeline accumulates the net change since the last repair (the XOR of
each round's ``last_changed``: a cell that flipped twice is back where
it was) and applies it in one ``RingSet.update``, whose staleness and
seed-completeness arguments hold for any net change between two
occupancies.  So ``pipeline.ring_set`` is current only right after one
of those two calls.

The pipeline keys its validity on ``SwarmState.version``: it applies the
``last_changed`` delta when the state advanced by exactly one
``apply_moves`` since the last sync, and falls back to a full rebuild on
any other history (fresh state, replays, external mutation of
``state.cells`` is *not* detected — engines must go through
``apply_moves``).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from repro.core.config import AlgorithmConfig
from repro.core.patterns import MergeCache
from repro.core.quasiline import StartSite, StartSiteIndex
from repro.grid.geometry import Cell
from repro.grid.occupancy import SwarmState
from repro.grid.ring import RingSet


class IncrementalPipeline:
    """Owns the per-round caches of one controller instance."""

    def __init__(self, cfg: AlgorithmConfig) -> None:
        self.cfg = cfg
        self.merge_cache = MergeCache(cfg)
        self.ring_set = RingSet()
        # The start-site index rides the ring set's structural hooks:
        # every splice repairs exactly the candidate heads whose windows
        # the arc can reach, so start rounds read sites without walking
        # contours.
        self.site_index = StartSiteIndex(cfg.start_straight_steps)
        self.ring_set.observer = self.site_index
        # The state is held by reference (not id()): a freed state's id
        # could be reused by a new SwarmState and alias stale caches.
        self._state: Optional[SwarmState] = None
        self._version: Optional[int] = None
        # Cells whose occupancy differs from the one the rings were last
        # repaired to; None means the rings must be rebuilt.
        self._ring_delta: Optional[Set[Cell]] = None

    # ------------------------------------------------------------------
    def _sync(self, state: SwarmState) -> None:
        """Bring the merge cache up to date with ``state`` and fold the
        round's change into the pending ring delta.

        Delta path: same state object, version advanced by exactly one
        ``apply_moves`` — consume ``state.last_changed``.  Anything else
        (first use, a different state, a version jump) rebuilds the
        merge cache and marks the rings for a rebuild.
        """
        if self._state is state and self._version == state.version:
            return  # already synced this round
        if (
            self._state is state
            and self._version is not None
            and state.version == self._version + 1
        ):
            changed = state.last_changed
            self.merge_cache.update(state, changed)
            if self._ring_delta is not None:
                self._ring_delta ^= changed
        else:
            self.merge_cache.rebuild(state)
            self._ring_delta = None
        self._state = state
        self._version = state.version

    # ------------------------------------------------------------------
    def plan_merges(self, state: SwarmState) -> Dict[Cell, Cell]:
        """The moves of :func:`repro.core.patterns.plan_merges`, from the
        merge cache."""
        self._sync(state)
        return self.merge_cache.plan()

    def contours(self, state: SwarmState) -> RingSet:
        """The maintained linked-ring contours of ``state`` (replaces the
        per-round :func:`repro.grid.boundary.extract_boundaries` call):
        the net change since the last repair is applied in one update,
        or the rings are rebuilt when the history is unknown."""
        self._sync(state)
        if self._ring_delta is None:
            self.ring_set.rebuild(state.cells)
            self._ring_delta = set()
        elif self._ring_delta:
            self.ring_set.update(
                state.cells, self._ring_delta, masks=state.masks()
            )
            self._ring_delta = set()
        return self.ring_set

    def start_sites(self, state: SwarmState) -> List[StartSite]:
        """Run start sites from the persistent index — bit-identical
        admissions to :func:`repro.core.quasiline.run_start_sites` over
        the same contours, without the per-start-round contour walk."""
        return self.site_index.sites(self.contours(state))

    def take_resplices(self) -> List[Tuple[int, int, int]]:
        """Drain the ``(ring_id, arc_sides, removed_sides)`` records of
        the latest ring repair (for the controller's
        ``boundary_respliced`` events)."""
        out = self.ring_set.last_resplices
        self.ring_set.last_resplices = []
        return out
