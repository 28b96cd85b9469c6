"""Unit tests for the global-vision and ASYNC greedy baselines."""

from repro.api import simulate
from repro.baselines.async_greedy import AsyncGreedyGatherer
from repro.baselines.global_grid import _sign_step
from repro.grid.occupancy import SwarmState
from repro.swarms.generators import line, random_blob, ring, solid_rectangle


class TestSignStep:
    def test_zero_band(self):
        assert _sign_step(0.2) == 0
        assert _sign_step(-0.2) == 0

    def test_directions(self):
        assert _sign_step(3.0) == 1
        assert _sign_step(-0.6) == -1


class TestGlobalVision:
    def test_line_gathers_in_half_diameter(self):
        cells = line(21)
        r = simulate(cells, strategy="global")
        assert r.gathered
        assert r.rounds <= 11  # ~diameter/2

    def test_ring_gathers(self):
        r = simulate(ring(10), strategy="global")
        assert r.gathered

    def test_rounds_scale_with_diameter_not_n(self):
        r_small = simulate(solid_rectangle(5, 5), strategy="global")
        r_big = simulate(solid_rectangle(10, 10), strategy="global")
        # 4x the robots but only ~2x the rounds
        assert r_big.rounds <= 3 * max(r_small.rounds, 1)

    def test_total_moves_reported(self):
        res = simulate(line(9), strategy="global")
        assert res.gathered
        assert res.extras["total_moves"] > 0

    def test_does_not_need_connectivity(self):
        # global vision tolerates moves that break 4-connectivity
        cells = line(15)
        r = simulate(cells, strategy="global")
        assert r.gathered


class TestAsyncGreedy:
    def test_line_gathers(self):
        r = simulate(line(30), strategy="async_greedy")
        assert r.gathered

    def test_ring_gathers(self):
        r = simulate(ring(10), strategy="async_greedy")
        assert r.gathered

    def test_blob_gathers(self):
        r = simulate(random_blob(150, seed=5), strategy="async_greedy")
        assert r.gathered

    def test_linear_rounds_on_line(self):
        n = 60
        r = simulate(line(n), strategy="async_greedy")
        assert r.gathered
        assert r.rounds <= 2 * n  # the paper's O(n) rounds remark

    def test_activation_returns_self_when_stuck(self):
        g = AsyncGreedyGatherer()
        state = SwarmState([(0, 0), (1, 0), (2, 0)])
        # middle robot has two collinear neighbors: must stay
        assert g.activate(state, (1, 0)) == (1, 0)

    def test_leaf_activation_merges(self):
        g = AsyncGreedyGatherer()
        state = SwarmState([(0, 0), (1, 0), (2, 0)])
        assert g.activate(state, (0, 0)) == (1, 0)

    def test_corner_activation(self):
        g = AsyncGreedyGatherer()
        state = SwarmState([(0, 0), (1, 0), (0, 1), (1, 1)])
        assert g.activate(state, (0, 0)) == (1, 1)

    def test_seed_reproducibility(self):
        cells = random_blob(80, seed=3)
        a = simulate(cells, strategy="async_greedy", seed=11)
        b = simulate(cells, strategy="async_greedy", seed=11)
        assert a.rounds == b.rounds and a.activations == b.activations
