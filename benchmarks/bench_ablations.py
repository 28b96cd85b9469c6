"""Experiments E5-E7: ablations of the paper's design choices.

E5 — the constants: viewing radius and the run-start interval L
     (paper Lemma 3 fixes radius 20, L = 22).
E6 — pipelining (paper Section 4.2): periodic run starts are what makes
     reshapement-bound families linear.
E7 — merge operation length k (paper Fig. 2): longer local merges buy
     parallelism on thick material.
"""

from __future__ import annotations

from benchmarks.conftest import emit
from repro.analysis.tables import format_table
from repro.api import simulate
from repro.core.config import AlgorithmConfig
from repro.swarms.generators import ring, solid_rectangle

STALL = 6000


def _rounds(cells, cfg):
    r = simulate(cells, config=cfg, max_rounds=STALL, check_connectivity=False)
    return r.rounds if r.gathered else -1


def test_e5_interval_sweep(benchmark):
    """E5a: run-start interval L sweep on a mergeless ring."""
    cells = ring(24)
    rows = []
    for interval in (6, 12, 22, 44, 88):
        cfg = AlgorithmConfig(run_start_interval=interval)
        rounds = _rounds(cells, cfg)
        rows.append((interval, rounds if rounds >= 0 else "stalled"))
    emit(
        format_table(
            ["L (run start interval)", "rounds"],
            rows,
            title="E5a interval sweep, ring(24) — paper default L=22",
        )
    )
    benchmark.extra_info["rows"] = rows
    # all intervals gather; smaller L reshapes more aggressively
    assert all(isinstance(r[1], int) for r in rows)
    benchmark.pedantic(
        lambda: _rounds(cells, AlgorithmConfig(run_start_interval=22)),
        rounds=1,
        iterations=1,
    )


def test_e5_radius_sweep(benchmark):
    """E5b: viewing radius sweep (radius bounds the merge length via the
    locality budget 2k+2 <= r)."""
    cells = ring(24)
    rows = []
    for radius in (6, 11, 14, 20, 30):
        k = (radius - 2) // 2
        cfg = AlgorithmConfig(viewing_radius=radius, max_bump_length=k)
        rounds = _rounds(cells, cfg)
        rows.append((radius, k, rounds if rounds >= 0 else "stalled"))
    emit(
        format_table(
            ["viewing radius", "max merge k", "rounds"],
            rows,
            title="E5b radius sweep, ring(24) — paper default radius 20",
        )
    )
    benchmark.extra_info["rows"] = rows
    assert all(isinstance(r[2], int) for r in rows)
    benchmark.pedantic(
        lambda: _rounds(cells, AlgorithmConfig()), rounds=1, iterations=1
    )


def test_e6_pipelining(benchmark):
    """E6: disabling periodic run starts (pipelining off) slows or stalls
    reshapement-bound swarms — the paper's Fig. 15 mechanism."""
    rows = []
    for side in (16, 24, 32):
        cells = ring(side)
        on = _rounds(cells, AlgorithmConfig(pipelining=True))
        off = _rounds(cells, AlgorithmConfig(pipelining=False))
        rows.append(
            (
                side,
                len(cells),
                on,
                off if off >= 0 else "stalled",
                f"{off / on:.1f}x" if off > 0 and on > 0 else "inf",
            )
        )
    emit(
        format_table(
            ["ring side", "n", "pipelined", "single batch", "slowdown"],
            rows,
            title="E6 pipelining ablation (paper Section 4.2)",
        )
    )
    benchmark.extra_info["rows"] = rows
    # pipelining must never lose, and must win somewhere
    for _, _, on, off, _ in rows:
        assert on > 0
        assert off == "stalled" or off >= on
    benchmark.pedantic(
        lambda: _rounds(ring(24), AlgorithmConfig()), rounds=1, iterations=1
    )


def test_e7_merge_length(benchmark):
    """E7: merge length k ablation (paper Fig. 2's parameter)."""
    rows = []
    shapes = [("ring(20)", ring(20)), ("solid 12x12", solid_rectangle(12, 12))]
    for k in (1, 2, 4, 9):
        cfg = AlgorithmConfig(max_bump_length=k)
        measured = []
        for _, cells in shapes:
            r = _rounds(cells, cfg)
            measured.append(r if r >= 0 else "stalled")
        rows.append((k, *measured))
    emit(
        format_table(
            ["max k", *[s[0] for s in shapes]],
            rows,
            title="E7 merge-length ablation — longer merges buy parallelism",
        )
    )
    benchmark.extra_info["rows"] = rows
    # k=9 must beat or match k=1 on the solid block
    k1_solid = rows[0][2]
    k9_solid = rows[-1][2]
    assert isinstance(k9_solid, int)
    assert k1_solid == "stalled" or k9_solid <= k1_solid
    benchmark.pedantic(
        lambda: _rounds(solid_rectangle(12, 12), AlgorithmConfig()),
        rounds=1,
        iterations=1,
    )


def test_e7b_runs_required(benchmark):
    """E7 companion: with runs disabled, mergeless families stall while
    thick material still gathers — the paper's motivation for runners."""
    rows = []
    for name, cells in (
        ("ring(16)", ring(16)),
        ("solid 10x10", solid_rectangle(10, 10)),
    ):
        with_runs = _rounds(cells, AlgorithmConfig())
        without = _rounds(cells, AlgorithmConfig(enable_runs=False))
        rows.append(
            (name, with_runs, without if without >= 0 else "stalled")
        )
    emit(
        format_table(
            ["shape", "with runs", "without runs"],
            rows,
            title="E7b run machinery ablation",
        )
    )
    benchmark.extra_info["rows"] = rows
    assert rows[0][2] == "stalled"  # mergeless ring needs runs
    assert isinstance(rows[1][2], int)  # solid gathers on merges alone
    benchmark.pedantic(
        lambda: _rounds(ring(16), AlgorithmConfig()), rounds=1, iterations=1
    )
