"""Unit tests for repro.grid.ring (persistent linked-ring contours).

The load-bearing property is **materialization equivalence**: after any
sequence of ``update`` calls, ``RingSet.to_boundaries()`` must be
byte-identical to a fresh ``extract_boundaries`` of the same cells —
canonical rotation, canonical order, outer flag and all.  The edge-case
tests pin the splice paths the equivalence suite only exercises
statistically: arcs spanning the canonical rotation origin, holes opening
and closing, and contour splits/merges (which must fall back to a full
re-trace rather than corrupt the rings).
"""

import pytest

from repro.core.algorithm import GatherOnGrid
from repro.core.config import AlgorithmConfig
from repro.engine.scheduler import RoundEngine
from repro.grid.boundary import extract_boundaries
from repro.grid.occupancy import SwarmState
from repro.grid.ring import RingSet
from repro.swarms.generators import ring, solid_rectangle


def assert_canonical(rs, cells):
    got = rs.to_boundaries()
    want = extract_boundaries(set(cells))
    assert got == want
    for rg, b in zip(rs.rings, want):
        assert len(rg) == len(b.robots)
        assert rg.robots_cycle() == b.robots


class TestConstruction:
    def test_matches_extraction_on_families(self):
        from repro.swarms.generators import FAMILIES, family

        for name in sorted(FAMILIES):
            cells = family(name, 48)
            rs = RingSet.from_cells(set(cells))
            assert_canonical(rs, cells)

    def test_single_robot(self):
        rs = RingSet.from_cells({(3, 3)})
        assert len(rs.rings) == 1
        assert len(rs.rings[0]) == 1
        assert rs.rings[0].robots_cycle() == ((3, 3),)

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            RingSet.from_cells(set())


class TestSpliceEdgeCases:
    def test_dirty_arc_spans_canonical_origin(self):
        """Vacating the anchor cell itself: the dirty arc covers the
        outer ring's canonical start side, and the anchor (hence the
        head) must migrate — byte-identically to full extraction."""
        old = set(solid_rectangle(5, 5))
        anchor_cell = min(old, key=lambda c: (c[1], c[0]))
        new = (old - {anchor_cell}) | {(2, 5)}
        rs = RingSet.from_cells(old)
        rs.update(new, {anchor_cell, (2, 5)})
        assert_canonical(rs, new)

    def test_dirty_arc_spans_inner_canonical_origin(self):
        """An update touching the hole contour's lexicographically
        smallest side must re-canonicalize the inner head."""
        old = set(ring(6))
        inner = extract_boundaries(old)[1]
        min_cell = min(c for c, _ in inner.sides)
        # fold the min-side robot's cell... simplest: fill a hole cell
        # adjacent to it so its sides rewire
        new = old | {(1, 1)}
        rs = RingSet.from_cells(old)
        rs.update(new, {(1, 1)})
        assert_canonical(rs, new)
        assert min_cell is not None  # (sanity: the shape has a hole)

    def test_hole_opens(self):
        old = set(solid_rectangle(5, 5))
        new = old - {(2, 2)}
        rs = RingSet.from_cells(old)
        rs.update(new, {(2, 2)})
        assert_canonical(rs, new)
        assert len(rs.rings) == 2

    def test_hole_closes(self):
        old = set(solid_rectangle(3, 3)) - {(1, 1)}
        new = old | {(1, 1)}
        rs = RingSet.from_cells(old)
        assert len(rs.rings) == 2
        rs.update(new, {(1, 1)})
        assert_canonical(rs, new)
        assert len(rs.rings) == 1

    def test_contour_split_falls_back(self):
        """Closing a C into an O splits the outer contour into outer +
        hole; the splice cannot represent that and must fall back to a
        full re-trace, still matching extraction exactly."""
        full = set(ring(6))
        gap = (3, 0)
        old = full - {gap}  # C shape: one contour
        rs = RingSet.from_cells(old)
        assert len(rs.rings) == 1
        rs.update(full, {gap})
        assert_canonical(rs, full)
        assert len(rs.rings) == 2

    def test_contour_merge_falls_back(self):
        """Opening an O into a C merges the hole contour into the outer;
        must fall back and still match extraction exactly."""
        full = set(ring(6))
        gap = (3, 0)
        new = full - {gap}
        rs = RingSet.from_cells(full)
        assert len(rs.rings) == 2
        rs.update(new, {gap})
        assert_canonical(rs, new)
        assert len(rs.rings) == 1
        # a structural change of this size is recorded as a fallback
        assert any(cid == -1 for cid, _, _ in rs.last_resplices)

    def test_hole_opens_and_closes_within_one_repair(self):
        """One update may cover several rounds: it gets their net
        change, the XOR of each round's flipped cells.  A hole that
        opened and closed again in between leaves no trace in it."""
        cells = set(solid_rectangle(6, 6))
        rs = RingSet.from_cells(cells)
        net = set()
        # the hole opens, a corner robot leaves, the hole closes
        for flipped in ({(2, 2)}, {(0, 0)}, {(2, 2)}):
            cells ^= flipped
            net ^= flipped
        assert net == {(0, 0)}
        rs.update(cells, net)
        assert_canonical(rs, cells)
        assert len(rs.rings) == 1

    def test_hole_moves_within_one_repair(self):
        """A hole closes and another opens between two repairs: one
        update drops the old hole's ring and reseeds the new one."""
        cells = set(solid_rectangle(6, 6)) - {(2, 2)}
        rs = RingSet.from_cells(cells)
        net = set()
        for flipped in ({(2, 2)}, {(3, 3)}):
            cells ^= flipped
            net ^= flipped
        rs.update(cells, net)
        assert_canonical(rs, cells)
        assert len(rs.rings) == 2

    def test_no_change_is_noop(self):
        cells = set(ring(8))
        rs = RingSet.from_cells(cells)
        before = [id(r) for r in rs.rings]
        rs.update(cells, set())
        assert [id(r) for r in rs.rings] == before
        assert rs.last_resplices == []


class TestNodeStability:
    def test_clean_nodes_keep_identity(self):
        """Nodes outside the dirty arcs survive an update as the same
        objects with the same node ids."""
        old = set(ring(10))
        # vacate one outer corner robot (a fold-like local change)
        new = (old - {(0, 0)}) | {(1, 1)}
        rs = RingSet.from_cells(old)
        far_side = ((5, 0), (0, -1))  # bottom wall, far from the change
        far_node = rs.node_of[far_side]
        rs.update(new, {(0, 0), (1, 1)})
        assert rs.node_of[far_side] is far_node
        assert_canonical(rs, new)

    def test_persisting_dirty_side_reuses_node(self):
        """A side inside the dirty halo that survives the re-trace keeps
        its node object (identity-preserving splice)."""
        old = set(ring(10))
        new = (old - {(0, 0)}) | {(1, 1)}
        rs = RingSet.from_cells(old)
        # (2, 0) is within the halo of (1, 1); its south side survives
        near_side = ((2, 0), (0, -1))
        near_node = rs.node_of[near_side]
        rs.update(new, {(0, 0), (1, 1)})
        assert rs.node_of[near_side] is near_node

    def test_ring_ids_stable_for_untouched_rings(self):
        old = set(ring(10))
        new = (old - {(0, 0)}) | {(1, 1)}
        rs = RingSet.from_cells(old)
        inner_id = rs.rings[1].ring_id
        rs.update(new, {(0, 0), (1, 1)})
        assert rs.rings[1].ring_id == inner_id


class TestRobotCycleNavigation:
    def test_robots_cycle_matches_collapse(self):
        line5 = [(i, 0) for i in range(5)]
        for cells in (ring(7), solid_rectangle(4, 2), line5):
            rs = RingSet.from_cells(set(cells))
            for rg, b in zip(rs.rings, extract_boundaries(set(cells))):
                assert rg.robots_cycle() == b.robots

    def test_walk_and_positions_on_one_thick_line(self):
        """1-thick contours visit interior robots twice; stepping and
        positions must follow the collapsed cycle, occurrences distinct."""
        cells = [(i, 0) for i in range(4)]
        rs = RingSet.from_cells(set(cells))
        rg = rs.rings[0]
        robots = rg.robots_cycle()
        assert len(robots) == 6  # 4 robots, 2 interior ones twice
        pm = rg.positions_map()
        assert sorted(pm.values()) == list(range(6))
        # walking n steps returns to the start occurrence
        start = next(iter(pm))
        cur = start
        for _ in range(len(rg)):
            cur = rg.step(cur, 1)
        assert cur is start

    def test_step_directions_inverse(self):
        rs = RingSet.from_cells(set(ring(6)))
        rg = rs.rings[0]
        head = rg.occurrence_head(rg.head)
        assert rg.step(rg.step(head, 1), -1) is head


class TestTrajectoryEquivalence:
    @pytest.mark.parametrize(
        "name",
        ["ring_48", "blob_48", "spiral_48", "spiral_160", "solid_900",
         "tree_1000"],
    )
    def test_update_tracks_engine(self, name):
        """Repairs every k in {1, 3, 22} rounds, each given the net
        change since its last repair (the XOR of the skipped rounds'
        ``last_changed``), as the pipeline does when only rounds with a
        live run or a due start read the rings."""
        from repro.swarms.generators import family

        fam, n = name.rsplit("_", 1)
        cells = family(fam, int(n))
        gaps = (1, 3, 22)
        ring_sets = {k: RingSet.from_cells(set(cells)) for k in gaps}
        pending = {k: set() for k in gaps}
        ctrl = GatherOnGrid(AlgorithmConfig())
        eng = RoundEngine(SwarmState(cells), ctrl)
        rounds = 0
        while not eng.state.is_gathered() and rounds < 200:
            eng.step()
            rounds += 1
            for k in gaps:
                pending[k] ^= eng.state.last_changed
                if rounds % k and not eng.state.is_gathered():
                    continue
                ring_sets[k].update(
                    eng.state.cells, pending[k], masks=eng.state.masks()
                )
                pending[k] = set()
                assert_canonical(ring_sets[k], eng.state.cells)


class TestResplicedEvents:
    def test_incremental_emits_audit_events(self):
        from repro.core.algorithm import gather

        r = gather(ring(12), AlgorithmConfig(incremental=True))
        events = r.events.of_kind("boundary_respliced")
        assert events, "incremental mode must audit its boundary work"
        for e in events:
            for cycle_id, arc, removed in e.data["arcs"]:
                assert isinstance(cycle_id, int)
                assert arc >= 0 and removed >= 0

    def test_full_rescan_emits_none(self):
        from repro.core.algorithm import gather

        r = gather(ring(12), AlgorithmConfig(incremental=False))
        assert not r.events.of_kind("boundary_respliced")

    def test_rings_repaired_only_in_rounds_that_read_them(self, monkeypatch):
        """Merge-only rounds (no live run, no due start) neither repair
        the rings nor emit ``boundary_respliced``: the repair waits for
        the next round that reads the contours."""
        from repro.api import simulate
        from repro.swarms.generators import family

        calls = []
        update = RingSet.update

        def spy(self, *args, **kwargs):
            calls.append(None)
            return update(self, *args, **kwargs)

        monkeypatch.setattr(RingSet, "update", spy)
        after_round = []
        r = simulate(
            family("blob", 1500),
            on_round=lambda i, _state: after_round.append(len(calls)),
        )
        assert r.gathered
        interval = AlgorithmConfig().run_start_interval
        runs_after = [row.active_runs for row in r.metrics.rows]
        reading = {
            i
            for i in range(r.rounds)
            if i % interval == 0 or (i > 0 and runs_after[i - 1] > 0)
        }
        repairing = {
            i
            for i, n in enumerate(after_round)
            if n > (after_round[i - 1] if i else 0)
        }
        respliced = {
            e.round_index for e in r.events.of_kind("boundary_respliced")
        }
        assert respliced
        # at least one repair covers several rounds' net change
        assert any(i > 1 and i - 1 not in repairing for i in repairing)
        assert repairing <= reading
        assert respliced <= reading
        # most rounds of a merge-dominated gather read no contours
        assert len(reading) < r.rounds // 2
