"""Experiment E1 (Theorem 1) and E8 (lower bound): linear-time gathering.

Regenerates the paper's headline claim as a measured series: for every
workload family, rounds-to-gather vs n with a power-law fit.  The fitted
exponent must stay near 1 (the paper proves O(n); the lower bound is
Omega(n) on the line family, whose diameter is n-1).
"""

from __future__ import annotations

import os

import pytest

from benchmarks.conftest import emit
from repro.analysis.experiments import run_scaling
from repro.analysis.fitting import fit_linear, scaling_exponent
from repro.analysis.tables import format_table
from repro.api import simulate
from repro.swarms.generators import family, line

#: Worker processes for the sweeps: REPRO_JOBS=0 means one per CPU,
#: unset/1 runs serially.  Results are bit-identical either way (per-task
#: seeds, order-preserving collection).
JOBS = int(os.environ.get("REPRO_JOBS", "1"))
WORKERS = None if JOBS == 1 else JOBS


# family -> sweep sizes (kept modest so the suite runs in minutes)
SWEEPS = {
    "line": [40, 80, 160, 320],
    "solid": [64, 144, 256, 400],
    # rings below ~n=90 ride the bump-merge shortcut; start past it so the
    # fit reflects the asymptotic regime
    "ring": [92, 124, 188, 252],
    "blob": [100, 200, 400, 700],
    "tree": [80, 160, 320, 500],
    "staircase": [61, 121, 241, 361],
    "plus": [61, 121, 241, 361],
    "spiral": [64, 127, 247, 493],
}

#: Theorem 1 bound constant asserted on every measured point: the paper
#: proves rounds <= (2L+1) n; our implementation stays far below.
LINEAR_C = 6.0


@pytest.mark.parametrize("family_name", sorted(SWEEPS))
def test_e1_rounds_scale_linearly(benchmark, family_name):
    """E1: rounds vs n per family; exponent ~1, paper Theorem 1."""
    sizes = SWEEPS[family_name]
    points = run_scaling(
        family_name,
        sizes,
        check_connectivity=False,
        workers=WORKERS,
    )
    assert all(p.gathered for p in points), f"{family_name} stalled"

    ns = [p.n for p in points]
    rounds = [p.rounds for p in points]
    exponent = scaling_exponent(ns, rounds)
    lin = fit_linear(ns, rounds)

    rows = [
        (p.n, p.diameter, p.rounds, f"{p.rounds_per_n:.2f}") for p in points
    ]
    emit(
        format_table(
            ["n", "diameter", "rounds", "rounds/n"],
            rows,
            title=(
                f"E1 [{family_name}] rounds vs n — fitted exponent "
                f"{exponent:.2f}, linear fit slope {lin.coefficients[0]:.2f} "
                f"(R2={lin.r_squared:.3f})"
            ),
        )
    )
    benchmark.extra_info["family"] = family_name
    benchmark.extra_info["exponent"] = exponent
    benchmark.extra_info["rows"] = rows
    # Theorem 1's actual claim: a linear bound on every point.  (The raw
    # power-fit exponent is reported for information; on families whose
    # round counts start near zero it overstates growth.)
    for p in points:
        assert p.rounds <= LINEAR_C * p.n + 40, (
            f"{family_name}: {p.rounds} rounds for n={p.n} breaks the "
            f"{LINEAR_C}n+40 budget"
        )

    # benchmark one representative mid-size instance
    cells = family(family_name, sizes[1])
    benchmark.pedantic(
        lambda: simulate(cells, check_connectivity=False),
        rounds=1,
        iterations=1,
    )


def test_e8_lower_bound_gap(benchmark):
    """E8: measured rounds vs the Omega(diameter) lower bound on lines.

    One 8-neighbor hop shrinks the Chebyshev diameter by at most 2 per
    round, so any algorithm needs >= (d-1)/2 rounds; we report the
    multiplicative gap of the implementation (paper: asymptotically
    optimal, i.e. the gap is O(1))."""
    rows = []
    gaps = []
    for n in (40, 80, 160, 320):
        cells = line(n)
        result = simulate(cells, check_connectivity=False)
        assert result.gathered
        bound = (n - 1 - 1) / 2
        gap = result.rounds / bound
        gaps.append(gap)
        rows.append((n, result.rounds, f"{bound:.0f}", f"{gap:.2f}"))
    emit(
        format_table(
            ["n", "rounds", "lower bound (d-1)/2", "gap"],
            rows,
            title="E8 lower-bound gap on the diameter-worst-case family",
        )
    )
    benchmark.extra_info["rows"] = rows
    assert max(gaps) < 3.0, "gap must stay O(1) for asymptotic optimality"
    benchmark.pedantic(
        lambda: simulate(line(80), check_connectivity=False),
        rounds=1,
        iterations=1,
    )
