"""Unit and integration tests for GatherOnGrid (paper Figure 11)."""

import pytest

from repro.core.algorithm import GatherOnGrid, gather
from repro.core.config import AlgorithmConfig
from repro.engine.scheduler import RoundEngine
from repro.engine.termination import run_engine
from repro.grid.occupancy import SwarmState
from repro.swarms.generators import line, ring, solid_rectangle


class TestGatherEntry:
    def test_line_gathers(self):
        r = gather(line(12))
        assert r.gathered
        assert r.robots_final <= 4

    def test_rounds_counted(self):
        r = gather(line(12))
        assert r.rounds == len(r.metrics)

    def test_single_robot_trivial(self):
        r = gather([(0, 0)])
        assert r.gathered and r.rounds == 0

    def test_pair_trivial(self):
        r = gather([(0, 0), (0, 1)])
        assert r.gathered and r.rounds == 0

    def test_2x2_is_final(self):
        r = gather([(0, 0), (1, 0), (0, 1), (1, 1)])
        assert r.gathered and r.rounds == 0

    def test_disconnected_rejected(self):
        with pytest.raises(ValueError):
            gather([(0, 0), (5, 5)])

    def test_max_rounds_respected(self):
        r = gather(ring(30), max_rounds=3)
        assert not r.gathered
        assert r.rounds == 3


class TestDeterminism:
    def test_same_input_same_history(self):
        hist1, hist2 = [], []
        for hist in (hist1, hist2):
            run_engine(
                RoundEngine(SwarmState(ring(14)), GatherOnGrid()),
                max_rounds=30,
                on_round=lambda i, s, h=hist: h.append(s.frozen()),
            )
        assert hist1 == hist2

    def test_translation_invariance(self):
        # no compass / no origin: translated swarms behave identically
        base = ring(12)
        shifted = [(x + 137, y - 55) for x, y in base]
        r1 = gather(base)
        r2 = gather(shifted)
        assert r1.rounds == r2.rounds
        assert r1.robots_final == r2.robots_final


class TestConfigToggles:
    def test_runs_disabled_stalls_on_ring(self):
        cfg = AlgorithmConfig(enable_runs=False)
        r = gather(ring(14), cfg, max_rounds=300)
        assert not r.gathered  # mergeless swarm needs reshapement

    def test_runs_disabled_still_gathers_solid(self):
        cfg = AlgorithmConfig(enable_runs=False)
        r = gather(solid_rectangle(8, 8), cfg)
        assert r.gathered  # merges alone handle thick material

    def test_no_pipelining_is_slower_on_large_ring(self):
        fast = gather(ring(24)).rounds
        slow_r = gather(
            ring(24), AlgorithmConfig(pipelining=False), max_rounds=20000
        )
        assert (not slow_r.gathered) or slow_r.rounds >= fast

    def test_small_bump_length_still_gathers(self):
        cfg = AlgorithmConfig(max_bump_length=2)
        r = gather(ring(12), cfg)
        assert r.gathered

    def test_smaller_radius_still_gathers(self):
        cfg = AlgorithmConfig(viewing_radius=11, max_bump_length=4)
        r = gather(ring(12), cfg)
        assert r.gathered


class TestInvariantsDuringGathering:
    @pytest.mark.parametrize(
        "cells",
        [line(15), ring(12), solid_rectangle(6, 6)],
        ids=["line", "ring", "solid"],
    )
    def test_robot_count_never_increases(self, cells):
        counts = []
        run_engine(
            RoundEngine(SwarmState(cells), GatherOnGrid()),
            max_rounds=400,
            on_round=lambda i, s: counts.append(len(s)),
        )
        assert all(a >= b for a, b in zip(counts, counts[1:]))

    @pytest.mark.parametrize(
        "cells",
        [line(15), ring(12), solid_rectangle(6, 6)],
        ids=["line", "ring", "solid"],
    )
    def test_connectivity_every_round(self, cells):
        # the engine already raises on violation; assert it stayed silent
        r = gather(cells, check_connectivity=True)
        assert r.gathered

    def test_bounding_box_never_grows(self):
        boxes = []
        run_engine(
            RoundEngine(SwarmState(ring(12)), GatherOnGrid()),
            max_rounds=400,
            on_round=lambda i, s: boxes.append(s.bounding_box()),
        )
        for a, b in zip(boxes, boxes[1:]):
            ax0, ay0, ax1, ay1 = a
            bx0, by0, bx1, by1 = b
            assert bx0 >= ax0 and by0 >= ay0
            assert bx1 <= ax1 and by1 <= ay1

    def test_events_cover_merges(self):
        r = gather(ring(10))
        removed = sum(e.data["removed"] for e in r.events.of_kind("merge"))
        assert removed == r.merges_total


class TestTheorem1LinearBound:
    """The headline: rounds <= C * n with a modest C on every family."""

    CASES = [
        ("line", line(60), 2.0),
        ("ring", ring(20), 6.0),
        ("solid", solid_rectangle(9, 9), 1.0),
    ]

    @pytest.mark.parametrize("name,cells,c", CASES, ids=[c[0] for c in CASES])
    def test_linear_budget(self, name, cells, c):
        n = len(cells)
        r = gather(cells, max_rounds=int(c * n) + 30)
        assert r.gathered, f"{name} exceeded {c}*n rounds"
