#!/usr/bin/env python3
"""Experiment E1 as a standalone study: rounds vs n across families.

Prints the measured table per family, fits the growth, and writes an SVG
chart (rounds vs n) to scaling_study.svg.

Run:  python examples/scaling_study.py [--fast]
"""

import sys

from repro.analysis import (
    fit_linear,
    format_table,
    run_scaling,
    scaling_exponent,
)
from repro.viz.svg import line_chart


def main() -> None:
    fast = "--fast" in sys.argv
    sweeps = {
        "line": [40, 80, 160] if fast else [40, 80, 160, 320, 640],
        "ring": [92, 124, 188] if fast else [92, 124, 188, 252, 380],
        "solid": [64, 144, 256] if fast else [64, 144, 256, 400, 625],
        "blob": [100, 200, 400] if fast else [100, 200, 400, 700, 1000],
        "tree": [80, 160, 320] if fast else [80, 160, 320, 500, 800],
    }
    series = {}
    for fam, sizes in sweeps.items():
        points = run_scaling(fam, sizes, check_connectivity=False)
        rows = [
            (p.n, p.diameter, p.rounds, f"{p.rounds_per_n:.2f}")
            for p in points
        ]
        ns = [p.n for p in points]
        rounds = [p.rounds for p in points]
        exp = scaling_exponent(ns, rounds)
        lin = fit_linear(ns, rounds)
        print(
            format_table(
                ["n", "diameter", "rounds", "rounds/n"],
                rows,
                title=(
                    f"[{fam}] exponent {exp:.2f}, slope "
                    f"{lin.coefficients[0]:.2f} (R2 {lin.r_squared:.3f})"
                ),
            )
        )
        print()
        series[fam] = [(float(p.n), float(p.rounds)) for p in points]

    chart = line_chart(series, title="rounds vs n (Theorem 1: O(n))")
    chart.save("scaling_study.svg")
    print("wrote scaling_study.svg")


if __name__ == "__main__":
    main()
