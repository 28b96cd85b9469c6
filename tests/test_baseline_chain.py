"""Unit tests for the chain-shortening baseline ([KM09] flavour)."""

import pytest

from repro.api import simulate
from repro.baselines.chain import ChainShortener, hairpin_chain, zigzag_chain
from repro.grid.geometry import chebyshev


def shorten(chain):
    return simulate(chain, strategy="chain")


class TestConstruction:
    def test_too_short_rejected(self):
        with pytest.raises(ValueError):
            ChainShortener([(0, 0)])

    def test_non_adjacent_rejected(self):
        with pytest.raises(ValueError):
            ChainShortener([(0, 0), (3, 0)])

    def test_optimal_length(self):
        s = ChainShortener([(0, 0), (1, 1), (2, 2), (3, 3)])
        assert s.optimal_length == 4
        assert s.is_minimal()


class TestShortening:
    def test_detour_removed(self):
        # a chain with a bump: (0,0)-(0,1)-(1,1)-(1,0)-(2,0), endpoints
        # distance 2 -> optimal length 3
        r = shorten([(0, 0), (0, 1), (1, 1), (1, 0), (2, 0)])
        assert r.gathered
        assert r.robots_final == r.extras["optimal_length"] == 3

    def test_endpoints_fixed(self):
        chain = zigzag_chain(6)
        res = shorten(chain)
        assert res.final_state[0] == chain[0]
        assert res.final_state[-1] == chain[-1]
        assert res.gathered

    def test_links_stay_adjacent_every_round(self):
        s = ChainShortener(zigzag_chain(8, amplitude=4))
        for _ in range(200):
            if s.is_minimal():
                break
            s.step()
            for a, b in zip(s.chain, s.chain[1:]):
                assert chebyshev(a, b) <= 1

    def test_zigzag_shortens_to_optimal(self):
        chain = zigzag_chain(10, amplitude=3)
        r = shorten(chain)
        assert r.gathered
        assert r.robots_final == r.extras["optimal_length"]

    def test_linear_rounds(self):
        """[KM09]'s regime: rounds grow linearly with chain length."""
        lengths, rounds = [], []
        for steps in (6, 12, 24):
            chain = zigzag_chain(steps, amplitude=3)
            r = shorten(chain)
            assert r.gathered
            lengths.append(r.robots_initial)
            rounds.append(max(r.rounds, 1))
        # doubling the chain roughly doubles (not quadruples) the rounds
        assert rounds[2] <= 4 * rounds[1]
        assert rounds[1] <= 4 * rounds[0]

    def test_already_minimal_zero_rounds(self):
        r = shorten([(0, 0), (1, 0), (2, 0)])
        assert r.rounds == 0 and r.gathered


class TestHairpins:
    def test_valid_chain(self):
        chain = hairpin_chain(10)
        for a, b in zip(chain, chain[1:]):
            assert chebyshev(a, b) <= 1

    def test_shortens_to_optimal(self):
        r = shorten(hairpin_chain(20))
        assert r.gathered
        assert r.robots_final == r.extras["optimal_length"] == 3

    def test_linear_propagation(self):
        """Hairpins force propagation: rounds ~ depth (the [KM09] regime)."""
        r16 = shorten(hairpin_chain(16))
        r32 = shorten(hairpin_chain(32))
        assert r16.gathered and r32.gathered
        assert 1.5 <= r32.rounds / r16.rounds <= 3.0

    def test_bad_args(self):
        with pytest.raises(ValueError):
            hairpin_chain(0)


class TestZigzagGenerator:
    def test_valid_chain(self):
        chain = zigzag_chain(5, amplitude=2)
        for a, b in zip(chain, chain[1:]):
            assert chebyshev(a, b) <= 1

    def test_zigzag_collapses_in_constant_rounds(self):
        """All of a zigzag's detours are simultaneously redundant, so the
        round count does not grow with length (contrast with hairpins)."""
        r_small = shorten(zigzag_chain(8, amplitude=3))
        r_big = shorten(zigzag_chain(64, amplitude=3))
        assert r_big.rounds <= r_small.rounds + 3

    def test_bad_args(self):
        with pytest.raises(ValueError):
            zigzag_chain(0)
