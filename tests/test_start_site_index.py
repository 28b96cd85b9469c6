"""The incremental start-site index vs the full contour scan.

The index (:class:`repro.core.quasiline.StartSiteIndex`) must report,
at every query, exactly the sites the full :func:`run_start_sites` scan
would find on the same contours — same robots, directions, stretch
vectors, predecessors, and the same canonical ordering (the ordering
feeds the greedy admission in ``RunManager.start_runs``, so it is part
of the bit-identical contract).  These tests drive it through engine
trajectories, through hand-built ring-set repairs (splits, merges,
fallbacks, reseeds), and check the order-label machinery it sorts with.
"""

from __future__ import annotations

import pytest

from repro.core.algorithm import GatherOnGrid
from repro.core.config import AlgorithmConfig
from repro.core.quasiline import StartSiteIndex, run_start_sites
from repro.engine.scheduler import RoundEngine
from repro.grid.occupancy import SwarmState
from repro.grid.ring import RingSet
from repro.swarms.generators import family, ring, solid_rectangle

CFG = AlgorithmConfig()


def canonical_sites(sites):
    """Admission-relevant site content in admission order."""
    return [
        (s.boundary_index, s.robot, s.direction, s.stretch_dir, s.prev)
        for s in sorted(
            sites, key=lambda s: (s.boundary_index, s.position, s.direction)
        )
    ]


def fresh_index(rs: RingSet) -> StartSiteIndex:
    idx = StartSiteIndex(CFG.start_straight_steps)
    rs.observer = idx
    return idx


def assert_sites_match(idx: StartSiteIndex, rs: RingSet):
    expected = canonical_sites(
        run_start_sites(rs.rings, CFG.start_straight_steps)
    )
    got = canonical_sites(idx.sites(rs))
    assert got == expected


class TestEngineDifferential:
    """Every round of a live trajectory: index == full scan.

    Merge-only rounds leave the pipeline's rings unrepaired, so each
    comparison first brings them to the current state through
    ``contours()``; reading ``pipe.ring_set`` right after a step would
    compare an old state with itself."""

    @pytest.mark.parametrize(
        "fam,n", [("ring", 60), ("blob", 200), ("spiral", 160),
                  ("staircase", 61), ("tree", 80), ("solid", 144)]
    )
    def test_index_matches_full_scan(self, fam, n):
        ctrl = GatherOnGrid(CFG)
        eng = RoundEngine(
            SwarmState(family(fam, n)), ctrl, check_connectivity=False
        )
        compared = 0
        for _ in range(300):
            if eng.state.is_gathered():
                break
            eng.step()
            pipe = ctrl._pipeline
            assert_sites_match(pipe.site_index, pipe.contours(eng.state))
            compared += 1
        assert compared > 0

    @pytest.mark.parametrize("fam,n", [("blob", 200), ("solid", 144)])
    def test_index_matches_full_scan_every_start_interval(self, fam, n):
        """Queried only every L rounds and at the end, each query reads
        a repair that covers several rounds' net change."""
        ctrl = GatherOnGrid(CFG)
        eng = RoundEngine(
            SwarmState(family(fam, n)), ctrl, check_connectivity=False
        )
        pipe = ctrl._pipeline
        compared = 0
        while True:
            done = eng.state.is_gathered() or eng.round_index >= 300
            if done or eng.round_index % CFG.run_start_interval == 0:
                rs = pipe.contours(eng.state)
                assert_sites_match(pipe.site_index, rs)
                compared += 1
            if done:
                break
            eng.step()
        assert compared >= 2


class TestRingSetRepair:
    """Index repair across the splice edge cases of tests/test_ring.py:
    the query after any sequence of updates must match the full scan."""

    def test_hole_opens_and_closes(self):
        old = set(solid_rectangle(5, 5))
        rs = RingSet.from_cells(old)
        idx = fresh_index(rs)
        assert_sites_match(idx, rs)
        new = old - {(2, 2)}
        rs.update(new, {(2, 2)})
        assert len(rs.rings) == 2  # reseeded hole: indexed on first query
        assert_sites_match(idx, rs)
        rs.update(old, {(2, 2)})
        assert len(rs.rings) == 1
        assert_sites_match(idx, rs)

    def test_contour_split_fallback(self):
        full = set(ring(6))
        gap = (3, 0)
        old = full - {gap}
        rs = RingSet.from_cells(old)
        idx = fresh_index(rs)
        assert_sites_match(idx, rs)
        rs.update(full, {gap})  # C -> O: full-rebuild fallback
        assert any(cid == -1 for cid, _, _ in rs.last_resplices)
        assert_sites_match(idx, rs)

    def test_contour_merge_fallback(self):
        full = set(ring(6))
        gap = (3, 0)
        rs = RingSet.from_cells(full)
        idx = fresh_index(rs)
        assert_sites_match(idx, rs)
        rs.update(full - {gap}, {gap})  # O -> C: fallback
        assert_sites_match(idx, rs)

    def test_anchor_cell_vacated(self):
        """Dirty arc spanning the canonical origin (head migration)."""
        old = set(solid_rectangle(5, 5))
        anchor_cell = min(old, key=lambda c: (c[1], c[0]))
        new = (old - {anchor_cell}) | {(2, 5)}
        rs = RingSet.from_cells(old)
        idx = fresh_index(rs)
        assert_sites_match(idx, rs)
        rs.update(new, {anchor_cell, (2, 5)})
        assert_sites_match(idx, rs)

    def test_queries_between_many_updates(self):
        """Marks accumulate across updates between queries (the lazy
        flush path) and across saturation of runner-dense contours."""
        ctrl = GatherOnGrid(CFG)
        eng = RoundEngine(
            SwarmState(ring(16)), ctrl, check_connectivity=False
        )
        pipe = ctrl._pipeline
        for _burst in range(20):
            for _ in range(7):  # several updates per query
                if eng.state.is_gathered():
                    break
                eng.step()
            assert_sites_match(pipe.site_index, pipe.contours(eng.state))

    def test_short_contours_are_skipped_like_the_scan(self):
        """Contours shorter than straight_steps + 2 yield no sites in
        either representation."""
        cells = {(0, 0), (1, 0), (1, 1)}
        rs = RingSet.from_cells(cells)
        idx = fresh_index(rs)
        assert idx.sites(rs) == []
        assert run_start_sites(rs.rings, CFG.start_straight_steps) == []


class TestOrderLabels:
    """The per-ring order labels the index sorts with."""

    @staticmethod
    def descents(ring_obj):
        nodes = list(ring_obj.iter_nodes())
        return sum(
            1
            for a, b in zip(nodes, nodes[1:] + nodes[:1])
            if a.order >= b.order
        )

    def test_single_descent_after_many_splices(self):
        ctrl = GatherOnGrid(CFG)
        eng = RoundEngine(
            SwarmState(ring(24)), ctrl, check_connectivity=False
        )
        pipe = ctrl._pipeline
        for _ in range(60):
            if eng.state.is_gathered():
                break
            eng.step()
            for ring_obj in pipe.contours(eng.state).rings:
                # exactly one wrap-around point on the label cycle
                assert self.descents(ring_obj) == 1

    def test_relabel_on_gap_exhaustion(self, monkeypatch):
        """With a unit starting gap, an arc that *grows* (vacating an
        edge cell notches the contour: more new sides than old) must
        relabel, and after a relabel the anchor ``a`` may legitimately
        label above ``b`` (``ring.head`` on the surviving ``b..a``
        path) — the splice must then take the descent-in-arc branch.
        Regression: a negative subdivision step here corrupted the label
        order.  Pins one descent per ring, canonical materialization,
        and index equivalence through relabel-heavy updates."""
        import repro.grid.ring as R

        monkeypatch.setattr(R, "_ORDER_GAP", 1)
        relabels = []
        orig = R.RingSet.__dict__["_relabel"].__func__

        def spy(ring_obj, gap=1):
            relabels.append(ring_obj.ring_id)
            return orig(ring_obj, gap)

        monkeypatch.setattr(R.RingSet, "_relabel", staticmethod(spy))
        cells = set(solid_rectangle(8, 3))
        rs = RingSet.from_cells(cells)
        idx = fresh_index(rs)
        assert_sites_match(idx, rs)
        for vac in [(4, 0), (1, 0), (6, 0)]:
            cells = cells - {vac}
            rs.update(cells, {vac})
            for ring_obj in rs.rings:
                assert self.descents(ring_obj) == 1
            assert_sites_match(idx, rs)
        assert relabels, "the unit gap must force at least one relabel"

    def test_single_descent_under_unit_gap_trajectory(self, monkeypatch):
        """Engine-driven: the label invariants survive a whole
        trajectory of splices when every gap is minimal."""
        import repro.grid.ring as R

        monkeypatch.setattr(R, "_ORDER_GAP", 1)
        ctrl = GatherOnGrid(CFG)
        eng = RoundEngine(
            SwarmState(ring(24)), ctrl, check_connectivity=False
        )
        pipe = ctrl._pipeline
        for _ in range(80):
            if eng.state.is_gathered():
                break
            eng.step()
            rs = pipe.contours(eng.state)
            for ring_obj in rs.rings:
                assert self.descents(ring_obj) == 1
            assert_sites_match(pipe.site_index, rs)

    def test_label_order_matches_cycle_order(self):
        """Sorting heads by the (wrap-split) label key reproduces the
        canonical robot cycle order — the property sites() relies on."""
        ctrl = GatherOnGrid(CFG)
        eng = RoundEngine(
            SwarmState(ring(24)), ctrl, check_connectivity=False
        )
        pipe = ctrl._pipeline
        for _ in range(50):
            if eng.state.is_gathered():
                break
            eng.step()
            for ring_obj in pipe.contours(eng.state).rings:
                n = len(ring_obj)
                if n < 2:
                    continue
                first = ring_obj.occurrence_head(ring_obj.head)
                cycle = [first] + ring_obj.walk_heads(first, 1, n - 1)
                o0 = first.order
                keys = [
                    (0, h.order) if h.order >= o0 else (1, h.order)
                    for h in cycle
                ]
                assert keys == sorted(keys)


class TestIndexedSiteShape:
    def test_sites_carry_nodes_and_dense_ranks(self):
        rs = RingSet.from_cells(set(ring(10)))
        idx = fresh_index(rs)
        sites = idx.sites(rs)
        assert sites, "a ring this size has quasi-line endpoints"
        for s in sites:
            assert s.node is not None
            assert s.node.cell == s.robot
        per_ring = {}
        for s in sites:
            per_ring.setdefault(s.boundary_index, []).append(s.position)
        for positions in per_ring.values():
            distinct = sorted(set(positions))
            assert distinct == list(range(len(distinct)))
