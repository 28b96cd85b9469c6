"""Unit tests for the closed-chain gathering baseline ([ACLF+16])."""

import pytest

from repro.api import simulate
from repro.baselines.closed_chain import ClosedChainGatherer, rectangle_chain
from repro.grid.geometry import chebyshev


def gather_chain(chain, *, seed):
    return simulate(chain, strategy="closed_chain", seed=seed)


class TestConstruction:
    def test_too_short_rejected(self):
        with pytest.raises(ValueError):
            ClosedChainGatherer([(0, 0), (1, 0)])

    def test_broken_link_rejected(self):
        with pytest.raises(ValueError):
            ClosedChainGatherer([(0, 0), (1, 0), (5, 5)])

    def test_rectangle_chain_closed(self):
        chain = rectangle_chain(6, 4)
        n = len(chain)
        assert n == 2 * 6 + 2 * 4 - 4
        for i in range(n):
            assert chebyshev(chain[i], chain[(i + 1) % n]) <= 1

    def test_rectangle_bad_args(self):
        with pytest.raises(ValueError):
            rectangle_chain(1, 4)


class TestGathering:
    def test_small_rectangle_gathers(self):
        r = gather_chain(rectangle_chain(5, 5), seed=1)
        assert r.gathered
        assert r.robots_final >= 3  # the chain structure never drops below 3

    def test_bigger_rectangle_gathers(self):
        r = gather_chain(rectangle_chain(12, 8), seed=2)
        assert r.gathered

    def test_links_never_break(self):
        g = ClosedChainGatherer(rectangle_chain(8, 6), seed=3)
        for _ in range(500):
            if g.is_gathered():
                break
            g.step()
            m = len(g.chain)
            for i in range(m):
                assert chebyshev(g.chain[i], g.chain[(i + 1) % m]) <= 1

    def test_chain_length_monotone(self):
        g = ClosedChainGatherer(rectangle_chain(10, 10), seed=4)
        lengths = [len(g.chain)]
        for _ in range(800):
            if g.is_gathered():
                break
            g.step()
            lengths.append(len(g.chain))
        assert all(a >= b for a, b in zip(lengths, lengths[1:]))
        assert g.is_gathered()

    def test_seed_determinism(self):
        a = gather_chain(rectangle_chain(9, 7), seed=11)
        b = gather_chain(rectangle_chain(9, 7), seed=11)
        assert a.rounds == b.rounds and a.robots_final == b.robots_final

    def test_roughly_linear_rounds(self):
        """[ACLF+16]'s O(n) regime, here in expectation (randomized
        symmetry breaking): quadrupling n must not blow up rounds
        super-linearly beyond noise."""
        small = gather_chain(rectangle_chain(8, 8), seed=5)
        big = gather_chain(rectangle_chain(16, 16), seed=5)
        assert small.gathered and big.gathered
        assert big.rounds <= 8 * max(small.rounds, 1)
