"""Unit tests for the Euclidean go-to-center baseline ([DKL+11])."""

import math

import pytest

from repro.api import simulate
from repro.baselines.euclidean import (
    EuclideanSwarm,
    GoToCenterGatherer,
    smallest_enclosing_circle,
)


class TestSEC:
    def test_single_point(self):
        (cx, cy), r = smallest_enclosing_circle([(3.0, 4.0)])
        assert (cx, cy) == (3.0, 4.0) and r == 0.0

    def test_two_points(self):
        (cx, cy), r = smallest_enclosing_circle([(0, 0), (2, 0)])
        assert (cx, cy) == pytest.approx((1.0, 0.0))
        assert r == pytest.approx(1.0)

    def test_equilateral_triangle(self):
        pts = [(0, 0), (1, 0), (0.5, math.sqrt(3) / 2)]
        (cx, cy), r = smallest_enclosing_circle(pts)
        assert r == pytest.approx(1 / math.sqrt(3), rel=1e-9)

    def test_collinear_points(self):
        (cx, cy), r = smallest_enclosing_circle([(0, 0), (1, 0), (4, 0)])
        assert cx == pytest.approx(2.0)
        assert r == pytest.approx(2.0)

    def test_contains_all_points(self):
        import random

        rng = random.Random(1)
        pts = [(rng.uniform(-5, 5), rng.uniform(-5, 5)) for _ in range(60)]
        (cx, cy), r = smallest_enclosing_circle(pts)
        for (x, y) in pts:
            assert math.hypot(x - cx, y - cy) <= r + 1e-9

    def test_interior_points_do_not_inflate(self):
        pts = [(0, 0), (2, 0), (1, 0.1), (1, -0.1)]
        _, r = smallest_enclosing_circle(pts)
        assert r == pytest.approx(1.0, abs=1e-6)

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            smallest_enclosing_circle([])


class TestEuclideanSwarm:
    def test_connectivity(self):
        assert EuclideanSwarm([(0, 0), (0.9, 0)]).is_connected()
        assert not EuclideanSwarm([(0, 0), (1.5, 0)]).is_connected()

    def test_diameter(self):
        s = EuclideanSwarm([(0, 0), (3, 4)])
        assert s.diameter() == pytest.approx(5.0)

    def test_bad_shape_rejected(self):
        with pytest.raises(ValueError):
            EuclideanSwarm([(0, 0, 0)])


class TestGoToCenter:
    def test_edges_never_break(self):
        swarm = EuclideanSwarm([(0.9 * i, 0.0) for i in range(12)])
        g = GoToCenterGatherer()
        for _ in range(20):
            g.step(swarm)
            assert swarm.is_connected()

    def test_diameter_decreases(self):
        swarm = EuclideanSwarm([(0.9 * i, 0.0) for i in range(10)])
        d0 = swarm.diameter()
        GoToCenterGatherer().step(swarm)
        assert swarm.diameter() < d0

    def test_line_gathers(self):
        r = simulate(
            [(0.9 * i, 0.0) for i in range(10)], strategy="euclidean"
        )
        assert r.gathered

    def test_disconnected_rejected(self):
        with pytest.raises(ValueError):
            simulate([(0, 0), (10, 0)], strategy="euclidean")

    def test_quadratic_on_circles(self):
        """The [DKL+11] worst-case family: rounds/n^2 roughly constant."""
        ratios = []
        for n in (16, 32):
            rad = n * 0.9 / (2 * math.pi)
            pts = [
                (
                    rad * math.cos(2 * math.pi * i / n),
                    rad * math.sin(2 * math.pi * i / n),
                )
                for i in range(n)
            ]
            res = simulate(pts, strategy="euclidean")
            assert res.gathered
            ratios.append(res.rounds / n**2)
        assert ratios[1] == pytest.approx(ratios[0], rel=0.5)

    def test_record_diameter_series(self):
        r = simulate(
            [(0.9 * i, 0.0) for i in range(8)],
            strategy="euclidean",
            record_diameter=True,
        )
        diameters = r.extras["diameters"]
        assert len(diameters) == r.rounds
        assert all(a >= b - 1e-9 for a, b in zip(diameters, diameters[1:]))
