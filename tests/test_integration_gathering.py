"""Integration tests: the full algorithm on every workload family.

These are the repository's acceptance tests for the paper's headline:
every connected swarm gathers, connectivity holds every round (the engine
raises otherwise), and round counts respect a linear budget.
"""

import pytest

from repro.core.algorithm import gather
from repro.swarms.generators import (
    comb,
    diamond_ring,
    double_donut,
    h_shape,
    l_corridor,
    line,
    plus_shape,
    random_blob,
    random_tree,
    ring,
    solid_rectangle,
    spiral,
    staircase,
    staircase_corridor,
)

ALL_SHAPES = [
    ("line", line(40)),
    ("vline", line(25, vertical=True)),
    ("solid", solid_rectangle(9, 7)),
    ("ring", ring(14)),
    ("thick_ring", ring(12, thickness=2)),
    ("plus", plus_shape(10)),
    ("wide_plus", plus_shape(8, width=3)),
    ("h", h_shape(11, 7)),
    ("staircase", staircase(15)),
    ("stair_corridor", staircase_corridor(10, run=3)),
    ("diamond", diamond_ring(9)),
    ("spiral", spiral(6)),
    ("comb", comb(6, 8)),
    ("l_corridor", l_corridor(10, 2)),
    ("double_donut", double_donut(14)),
    ("blob", random_blob(250, 11)),
    ("tree", random_tree(180, 11)),
]


@pytest.mark.parametrize(
    "name,cells", ALL_SHAPES, ids=[s[0] for s in ALL_SHAPES]
)
def test_every_family_gathers_with_connectivity(name, cells):
    result = gather(cells, check_connectivity=True)
    assert result.gathered, f"{name} did not gather in the linear budget"
    assert result.robots_final <= 4


@pytest.mark.parametrize(
    "name,cells,c",
    [
        ("line", line(80), 1.0),
        ("solid", solid_rectangle(10, 10), 1.0),
        ("ring", ring(22), 4.0),
        ("blob", random_blob(400, 3), 1.0),
        ("tree", random_tree(250, 3), 1.0),
        ("diamond", diamond_ring(12), 6.0),
    ],
    ids=["line", "solid", "ring", "blob", "tree", "diamond"],
)
def test_linear_round_bound(name, cells, c):
    """rounds <= c*n + 40 — much tighter than Theorem 1's 45n."""
    n = len(cells)
    result = gather(cells, max_rounds=int(c * n) + 40)
    assert result.gathered, f"{name}: stalled (>{c}n+40 rounds for n={n})"


def test_rounds_scale_linearly_on_rings():
    """Empirical Theorem 1 on the reshapement-bound family: the growth
    exponent of rounds vs n stays near 1 (and the per-n ratio is bounded)."""
    from repro.analysis.fitting import scaling_exponent

    ns, rounds = [], []
    # start at side 24: smaller rings ride the bump-merge shortcut, whose
    # decay would masquerade as super-linear growth in the fit
    for side in (24, 32, 48, 64):
        cells = ring(side)
        r = gather(cells)
        assert r.gathered
        ns.append(len(cells))
        rounds.append(r.rounds)
    exponent = scaling_exponent(ns, rounds)
    assert exponent < 1.3, f"super-linear growth: exponent {exponent:.2f}"
    assert max(rounds[i] / ns[i] for i in range(len(ns))) < 6.0


def test_diameter_lower_bound_respected():
    """No algorithm beats Omega(diameter); sanity-check the accounting."""
    cells = line(60)
    r = gather(cells)
    # 8-neighbor moves shrink the Chebyshev diameter by at most 2 per round
    assert r.rounds >= (60 - 2) / 2 - 1


def test_gathering_is_idempotent():
    cells = [(0, 0), (1, 0), (0, 1)]
    r = gather(cells)
    assert r.gathered and r.rounds == 0


def test_huge_blob_smoke():
    r = gather(random_blob(1200, 17), check_connectivity=False)
    assert r.gathered
