"""Experiments E2-E4, E9 and E10: the baselines the paper positions
itself against, each run through ``simulate()``.

E2 — [DKL+11] Euclidean go-to-center is Theta(n^2) in FSYNC rounds while
     the grid algorithm is O(n): measure both, fit exponents, locate the
     crossover.
E3 — the Section 1 remark: a fair ASYNC scheduler admits a simple O(n)
     strategy.
E4 — [SN14] context: global vision gathers in O(diameter) rounds.
E9, E10 — the chain lineage: [KM09]-flavoured chain shortening and
     [ACLF+16] closed-chain gathering.
"""

from __future__ import annotations

from benchmarks.conftest import emit
from repro.analysis.fitting import scaling_exponent
from repro.analysis.tables import format_table
from repro.api import simulate
from repro.baselines.chain import hairpin_chain
from repro.baselines.closed_chain import rectangle_chain
from repro.engine.protocols import Scenario
from repro.swarms.generators import line, random_blob, ring, solid_rectangle


def _euclid_circle(n):
    """[DKL+11]'s worst case: a circle with unit visibility."""
    return simulate(Scenario(family="circle", n=n), strategy="euclidean")


def test_e2_euclidean_comparison(benchmark):
    """E2: grid O(n) vs Euclidean Theta(n^2) — exponents and crossover."""
    # worst-case family on each side: the line (diameter n-1) for the grid
    # algorithm, the circle for Euclidean go-to-center ([DKL+11]'s tight
    # instance)
    sizes = [16, 32, 48, 64]
    rows = []
    grid_rounds = []
    euc_rounds = []
    for n in sizes:
        g = simulate(line(n), check_connectivity=False)
        e = _euclid_circle(n)
        assert g.gathered and e.gathered
        grid_rounds.append(max(g.rounds, 1))
        euc_rounds.append(max(e.rounds, 1))
        ratio = e.rounds / max(g.rounds, 1)
        rows.append((n, g.rounds, e.rounds, f"{ratio:.1f}x"))
    exp_grid = scaling_exponent([float(s) for s in sizes], grid_rounds)
    exp_euc = scaling_exponent([float(s) for s in sizes], euc_rounds)
    emit(
        format_table(
            ["n", "grid rounds", "euclid rounds", "euclid/grid"],
            rows,
            title=(
                f"E2 grid (exp {exp_grid:.2f}) vs Euclidean go-to-center "
                f"(exp {exp_euc:.2f}); paper: O(n) vs Theta(n^2)"
            ),
        )
    )
    benchmark.extra_info["rows"] = rows
    # shape check: the Euclidean exponent must clearly exceed the grid one
    assert exp_euc > exp_grid + 0.5
    assert exp_euc > 1.6
    assert exp_grid < 1.45
    benchmark.pedantic(lambda: _euclid_circle(32), rounds=1, iterations=1)


def test_e3_async_fair_scheduler(benchmark):
    """E3: the 'simple strategy' under a fair ASYNC scheduler is O(n)
    rounds (paper Section 1 remark)."""
    rows = []
    ns, rnds = [], []
    for n in (50, 100, 200, 400):
        cells = random_blob(n, seed=n)
        r = simulate(
            cells, strategy="async_greedy", check_connectivity=False
        )
        assert r.gathered
        ns.append(n)
        rnds.append(max(r.rounds, 1))
        rows.append((n, r.rounds, r.activations, f"{r.rounds / n:.3f}"))
    exponent = scaling_exponent(ns, rnds)
    emit(
        format_table(
            ["n", "rounds", "activations", "rounds/n"],
            rows,
            title=f"E3 ASYNC fair-scheduler greedy — exponent {exponent:.2f}",
        )
    )
    benchmark.extra_info["rows"] = rows
    assert exponent < 1.3
    benchmark.pedantic(
        lambda: simulate(
            random_blob(100, seed=100),
            strategy="async_greedy",
            check_connectivity=False,
        ),
        rounds=1,
        iterations=1,
    )


def test_e4_global_vision(benchmark):
    """E4: global vision gathers in ~diameter/2 rounds ([SN14] context —
    with global information the problem is easy)."""
    rows = []
    for n in (49, 100, 225, 400):
        side = int(round(n**0.5))
        cells = solid_rectangle(side, side)
        result = simulate(cells, strategy="global")
        moves = result.extras["total_moves"]
        assert result.gathered
        rows.append(
            (
                len(cells),
                side - 1,
                result.rounds,
                moves,
                f"{result.rounds / max(side - 1, 1):.2f}",
            )
        )
    emit(
        format_table(
            ["n", "diameter", "rounds", "total moves", "rounds/diameter"],
            rows,
            title="E4 global-vision gatherer — rounds track diameter, not n",
        )
    )
    benchmark.extra_info["rows"] = rows
    # rounds/diameter stays ~0.5-1.5 across a 8x growth in n
    ratios = [float(r[4]) for r in rows]
    assert max(ratios) < 2.0
    benchmark.pedantic(
        lambda: simulate(solid_rectangle(10, 10), strategy="global"),
        rounds=1,
        iterations=1,
    )


def test_e2b_same_shape_both_models(benchmark):
    """E2 companion: the same logical line swarm in both worlds."""
    rows = []
    for n in (16, 32, 64):
        g = simulate(line(n), check_connectivity=False)
        e = simulate(
            [(0.9 * i, 0.0) for i in range(n)], strategy="euclidean"
        )
        assert g.gathered and e.gathered
        rows.append((n, g.rounds, e.rounds))
    emit(
        format_table(
            ["n", "grid rounds", "euclid rounds"],
            rows,
            title="E2b line swarms: grid vs Euclidean (same shape)",
        )
    )
    benchmark.extra_info["rows"] = rows
    benchmark.pedantic(
        lambda: simulate(line(64), check_connectivity=False),
        rounds=1,
        iterations=1,
    )


def test_e9_chain_shortening(benchmark):
    """E9: context baseline — [KM09]-flavoured chain shortening is linear.

    The gathering paper inherits its linear-time machinery from the chain
    line of work ([DKLH06] O(n^2 log n) -> [KM09] O(n) -> [ACLF+16] closed
    chains); this measures our chain shortener's regime."""
    rows = []
    lens, rnds = [], []
    for depth in (16, 32, 64, 128):
        r = simulate(hairpin_chain(depth), strategy="chain")
        assert r.gathered
        length = r.robots_initial
        lens.append(length)
        rnds.append(max(r.rounds, 1))
        rows.append(
            (length, r.extras["optimal_length"], r.rounds,
             f"{r.rounds / length:.2f}")
        )
    exponent = scaling_exponent(lens, rnds)
    emit(
        format_table(
            ["chain length", "optimal", "rounds", "rounds/length"],
            rows,
            title=(
                f"E9 chain shortening on hairpins ([KM09] flavour) — "
                f"exponent {exponent:.2f}"
            ),
        )
    )
    benchmark.extra_info["rows"] = rows
    assert exponent < 1.4
    benchmark.pedantic(
        lambda: simulate(hairpin_chain(64), strategy="chain"),
        rounds=1,
        iterations=1,
    )


def test_e10_closed_chain(benchmark):
    """E10: the paper's predecessor — closed-chain gathering [ACLF+16].

    Measures the simplified randomized closed-chain gatherer's round growth
    on rectangle chains, next to the general algorithm on rings of the same
    robot count (the general problem the paper solves by *dropping* the
    chain structure)."""
    rows = []
    lens, rnds = [], []
    for side in (8, 12, 16, 24):
        chain = rectangle_chain(side, side)
        cc = simulate(chain, strategy="closed_chain", seed=side)
        assert cc.gathered
        general = simulate(ring(side), check_connectivity=False)
        assert general.gathered
        lens.append(len(chain))
        rnds.append(max(cc.rounds, 1))
        rows.append(
            (len(chain), cc.rounds, f"{cc.rounds / len(chain):.2f}",
             general.rounds)
        )
    exponent = scaling_exponent(lens, rnds)
    emit(
        format_table(
            ["chain n", "chain rounds", "rounds/n", "general alg on ring"],
            rows,
            title=(
                f"E10 closed-chain gathering ([ACLF+16] simplified) — "
                f"exponent {exponent:.2f}"
            ),
        )
    )
    benchmark.extra_info["rows"] = rows
    assert exponent < 1.6  # randomized variant: linear in expectation
    benchmark.pedantic(
        lambda: simulate(
            rectangle_chain(12, 12), strategy="closed_chain", seed=1
        ),
        rounds=1,
        iterations=1,
    )
