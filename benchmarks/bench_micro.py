"""M1: micro-benchmarks of the simulator's hot paths.

Engineering benchmarks (not paper claims): boundary extraction, merge
pattern matching, one full engine round, and connectivity checking — the
four operations that dominate a simulation's profile.

``test_ring_resplice_speedup`` additionally writes ``BENCH_ring.json``
at the repo root: the steady-state per-round cost of the linked-ring
incremental pipeline vs full rescans on contour-dominated (ring) and
blob instances, so the performance trajectory stays machine-readable
across PRs, and the per-round cost of full-activation ``ssync`` and
``async-lcm`` gathers relative to ``fsync``.
``test_sweep_dispatch_report`` writes ``BENCH_sweep.json``: the sweep
orchestrator's pool-reuse win.
"""

from __future__ import annotations

import gc
import json
import os
import statistics
import time

import pytest

from repro.api import simulate
from repro.core.algorithm import GatherOnGrid
from repro.core.config import AlgorithmConfig
from repro.core.patterns import plan_merges
from repro.engine.scheduler import RoundEngine
from repro.grid.boundary import extract_boundaries
from repro.grid.connectivity import is_connected
from repro.grid.occupancy import SwarmState
from repro.swarms.generators import (
    family,
    random_blob,
    ring,
    solid_rectangle,
)

CFG = AlgorithmConfig()

_REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

BENCH_RING_PATH = os.path.join(_REPO_ROOT, "BENCH_ring.json")
BENCH_SWEEP_PATH = os.path.join(_REPO_ROOT, "BENCH_sweep.json")
INCREMENTAL_DOC_PATH = os.path.join(_REPO_ROOT, "docs", "incremental.md")
EXECUTORS_DOC_PATH = os.path.join(_REPO_ROOT, "docs", "executors.md")

#: Steady-state instances recorded in ``BENCH_ring.json``: (name,
#: factory, warm-up rounds, measured rounds).  The ring family and
#: blob_1500 definitions are frozen across PRs (the committed JSON is
#: the cross-PR trajectory); solid_3600 and spiral_1000 are long-lived
#: instances whose measured window spans run-start rounds, so the
#: start-site index is actually exercised, and solid_3600's wide lines
#: make the merge cache's dirty-line scans long.
BENCH_RING_INSTANCES = (
    ("ring_252", lambda: ring(64), 10, 100),
    ("ring_508", lambda: ring(128), 10, 100),
    ("ring_764", lambda: ring(192), 10, 100),
    ("blob_1500", lambda: random_blob(1500, 2), 1, 10),
    ("solid_3600", lambda: solid_rectangle(60, 60), 2, 40),
    ("spiral_1027", lambda: family("spiral", 1000), 10, 100),
)

#: Markers delimiting the generated performance table in
#: ``docs/incremental.md`` — the JSON and the doc table are emitted by
#: the same run from the same report dict, so they cannot drift.
DOC_TABLE_BEGIN = (
    "<!-- bench-ring-table:begin (generated by bench_micro.py) -->"
)
DOC_TABLE_END = "<!-- bench-ring-table:end -->"

SWEEP_LINE_BEGIN = (
    "<!-- bench-sweep:begin (generated by bench_micro.py) -->"
)
SWEEP_LINE_END = "<!-- bench-sweep:end -->"


def measure_steady_state() -> dict:
    """Measure every instance of :data:`BENCH_RING_INSTANCES`."""
    report = {"instances": {}}
    for name, make, warm, rounds in BENCH_RING_INSTANCES:
        cells = make()
        full = _steady_state_ms(cells, False, warm=warm, rounds=rounds)
        inc = _steady_state_ms(cells, True, warm=warm, rounds=rounds)
        report["instances"][name] = {
            "n": len(cells),
            "full_ms_per_round": round(full, 4),
            "incremental_ms_per_round": round(inc, 4),
            "speedup": round(full / inc, 2),
        }
    return report


def render_markdown_table(report: dict) -> str:
    """The docs' performance table, rendered from the same report dict
    that becomes ``BENCH_ring.json``."""
    lines = [
        "| instance    |    n | full rescan | incremental | speedup |",
        "|-------------|-----:|------------:|------------:|--------:|",
    ]
    for name, v in sorted(report["instances"].items()):
        lines.append(
            f"| {name:<11} | {v['n']:>4} | "
            f"{v['full_ms_per_round']:>8.2f} ms | "
            f"{v['incremental_ms_per_round']:>8.2f} ms | "
            f"{v['speedup']:>6.2f}x |"
        )
    return "\n".join(lines)


def _refresh_generated(
    doc_path: str, begin_marker: str, end_marker: str, body: str
) -> bool:
    """Replace the generated text between two markers in a doc; returns
    False when the markers are absent (the doc then simply keeps its
    last text)."""
    with open(doc_path) as fh:
        text = fh.read()
    begin = text.find(begin_marker)
    end = text.find(end_marker)
    if begin < 0 or end < 0 or end < begin:
        return False
    head = text[: begin + len(begin_marker)]
    tail = text[end:]
    with open(doc_path, "w") as fh:
        fh.write(head + "\n" + body + "\n" + tail)
    return True


def refresh_doc_table(
    report: dict, doc_path: str = INCREMENTAL_DOC_PATH
) -> bool:
    """Refresh the generated table in ``docs/incremental.md``."""
    return _refresh_generated(
        doc_path, DOC_TABLE_BEGIN, DOC_TABLE_END, render_markdown_table(report)
    )


@pytest.mark.parametrize(
    "name,cells",
    [
        ("solid_1600", solid_rectangle(40, 40)),
        ("ring_200", ring(51)),
        ("blob_2000", random_blob(2000, 1)),
    ],
    ids=["solid_1600", "ring_200", "blob_2000"],
)
def test_boundary_extraction(benchmark, name, cells):
    state = SwarmState(cells)
    result = benchmark(lambda: extract_boundaries(state))
    assert result[0].is_outer


@pytest.mark.parametrize(
    "name,cells",
    [
        ("solid_1600", solid_rectangle(40, 40)),
        ("blob_2000", random_blob(2000, 1)),
    ],
    ids=["solid_1600", "blob_2000"],
)
def test_pattern_matching(benchmark, name, cells):
    state = SwarmState(cells)
    moves, pats = benchmark(lambda: plan_merges(state, CFG))
    assert pats is not None


def test_single_engine_round(benchmark):
    cells = random_blob(1500, 2)

    def one_round():
        engine = RoundEngine(
            SwarmState(cells), GatherOnGrid(CFG), check_connectivity=False
        )
        engine.step()
        return engine

    engine = benchmark(one_round)
    assert engine.round_index == 1


@pytest.mark.parametrize("incremental", [False, True], ids=["full", "inc"])
def test_steady_state_round(benchmark, incremental):
    """One mid-simulation round, incremental pipeline off vs on.

    This is the tentpole's headline measurement: the cold round above
    pays the cache build; this one shows the per-round win (>= 2x on
    blob_1500) once the caches are primed.
    """
    cells = random_blob(1500, 2)
    cfg = AlgorithmConfig(incremental=incremental)

    def setup():
        engine = RoundEngine(
            SwarmState(cells), GatherOnGrid(cfg), check_connectivity=False
        )
        engine.step()  # prime caches / the seed's first full scans
        return (engine,), {}

    benchmark.pedantic(
        lambda engine: engine.step(), setup=setup, rounds=10, iterations=1
    )


@pytest.mark.parametrize("incremental", [False, True], ids=["full", "inc"])
def test_steady_state_round_ring(benchmark, incremental):
    """Steady-state round on a contour-dominated instance (ring n=508).

    The contour work per round is the boundary maintenance plus the run
    machinery; this is the instance family the linked-ring splice was
    built for (blobs go quiescent quickly, rings fold for hundreds of
    rounds)."""
    cells = ring(128)  # 508 robots
    cfg = AlgorithmConfig(incremental=incremental)

    def setup():
        engine = RoundEngine(
            SwarmState(cells), GatherOnGrid(cfg), check_connectivity=False
        )
        for _ in range(10):
            engine.step()  # reach the folding steady state
        return (engine,), {}

    benchmark.pedantic(
        lambda engine: engine.step(), setup=setup, rounds=10, iterations=1
    )


def _steady_state_ms(cells, incremental, *, warm, rounds):
    engine = RoundEngine(
        SwarmState(cells),
        GatherOnGrid(AlgorithmConfig(incremental=incremental)),
        check_connectivity=False,
    )
    for _ in range(warm):
        engine.step()
    t0 = time.perf_counter()
    for _ in range(rounds):
        engine.step()
    return (time.perf_counter() - t0) / rounds * 1000


#: Time models that follow FSYNC's trajectory at full activation: their
#: per-round cost over FSYNC's is scheduler overhead alone.
SCHEDULER_OVERHEAD_RUNS = (
    ("fsync", {}),
    ("ssync", {"scheduler": "ssync", "activation_p": 1.0}),
    (
        "async-lcm",
        {"scheduler": "async-lcm", "staleness": 0, "activation_p": 1.0},
    ),
)


def measure_scheduler_overhead(repeats: int = 5) -> dict:
    """Per-round CPU cost of whole ``simulate()`` ring_252 gathers
    (default options) per time model, and each model's ratio to fsync.

    A repeat runs the models back to back, rotating their order, so a
    phase of machine load hits all of them alike; a ratio is the median
    over repeats of the ratio within a repeat.  CPU time leaves out the
    time the process waits for the CPU on a shared machine."""
    cells = ring(64)
    ms: dict = {key: [] for key, _ in SCHEDULER_OVERHEAD_RUNS}
    ratios: dict = {key: [] for key, _ in SCHEDULER_OVERHEAD_RUNS[1:]}
    rounds = set()
    for i in range(repeats):
        shift = i % len(SCHEDULER_OVERHEAD_RUNS)
        cost = {}
        for key, options in (
            SCHEDULER_OVERHEAD_RUNS[shift:] + SCHEDULER_OVERHEAD_RUNS[:shift]
        ):
            gc.collect()
            t0 = time.process_time()
            result = simulate(cells, **options)
            cost[key] = (time.process_time() - t0) * 1000 / result.rounds
            ms[key].append(cost[key])
            rounds.add(result.rounds)
        for key in ratios:
            ratios[key].append(cost[key] / cost["fsync"])
    assert len(rounds) == 1, f"trajectories differ: rounds {rounds}"
    return {
        "instance": "ring_252",
        "rounds": rounds.pop(),
        "ms_per_round": {
            key: round(statistics.median(v), 4) for key, v in ms.items()
        },
        "ratio_vs_fsync": {
            key: round(statistics.median(v), 3) for key, v in ratios.items()
        },
    }


def test_ring_resplice_speedup(benchmark):
    """Record the incremental-vs-full steady-state round costs and the
    scheduler overhead ratios in ``BENCH_ring.json`` (the cross-PR perf
    trajectory artifact) and keep a regression floor on the ring-family
    speedup (``tools/bench_check.py`` gates the overhead ratios).

    One measurement, two artifacts: the JSON *and* the markdown table in
    ``docs/incremental.md`` are rendered from the same report, so they
    cannot drift.  ``BENCH_RING_OUT`` redirects the JSON (CI writes a
    fresh copy next to the committed baseline for
    ``tools/bench_check.py``); the doc refresh only happens for default
    (committed-path) runs.
    """
    report = measure_steady_state()
    report["scheduler_overhead"] = measure_scheduler_overhead()
    out_path = os.environ.get("BENCH_RING_OUT", BENCH_RING_PATH)
    with open(out_path, "w") as fh:
        json.dump(report, fh, indent=1, sort_keys=True)
        fh.write("\n")
    if out_path == BENCH_RING_PATH:
        refresh_doc_table(report)
    benchmark.extra_info["bench_ring"] = report
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    ring_speedups = [
        v["speedup"]
        for k, v in report["instances"].items()
        if k.startswith("ring_") and v["n"] >= 508
    ]
    # regression floor (the recorded values are the real measurement;
    # the floor is loose to survive noisy CI machines)
    assert max(ring_speedups) >= 2.0, report


def measure_sweep_dispatch(batches: int = 4, jobs_per_batch: int = 4):
    """Pool-reuse benefit: the same sweep batches dispatched through a
    fresh :class:`SweepOrchestrator` (worker spawn per batch, the old
    ``ProcessPoolExecutor``-per-call behavior) vs one persistent pool."""
    from repro.analysis.experiments import SweepJob
    from repro.analysis.orchestrator import SweepOrchestrator

    jobs = [
        SweepJob(family="ring", n=12 + 4 * i, check_connectivity=False)
        for i in range(jobs_per_batch)
    ]
    t0 = time.perf_counter()
    for _ in range(batches):
        with SweepOrchestrator(2) as orch:
            orch.submit_all(jobs)
            orch.collect(mode="gather")
    fresh = time.perf_counter() - t0
    with SweepOrchestrator(2) as orch:
        orch.submit_all(jobs)  # pay the one-time spawn outside the clock
        orch.collect(mode="gather")
        t0 = time.perf_counter()
        for _ in range(batches):
            orch.submit_all(jobs)
            orch.collect(mode="gather")
        persistent = time.perf_counter() - t0
    return {
        "batches": batches,
        "jobs_per_batch": jobs_per_batch,
        "fresh_pool_s": round(fresh, 4),
        "persistent_pool_s": round(persistent, 4),
        "reuse_speedup": round(fresh / persistent, 2),
    }


def render_sweep_line(report: dict) -> str:
    sweep = report["sweep_dispatch"]
    return (
        f"Sweep dispatch ({sweep['batches']} batches x "
        f"{sweep['jobs_per_batch']} jobs, cpu_count={report['cpu_count']}): "
        f"fresh pool per batch {sweep['fresh_pool_s']:.2f} s, persistent "
        f"pool {sweep['persistent_pool_s']:.2f} s "
        f"({sweep['reuse_speedup']:.2f}x from pool reuse)."
    )


def test_sweep_dispatch_report(benchmark):
    """Record the sweep pool-reuse numbers in ``BENCH_sweep.json``
    (checked by ``tools/bench_check.py --sweep`` in CI).
    ``BENCH_SWEEP_OUT`` redirects the JSON for fresh CI measurements;
    the ``docs/executors.md`` line refresh only happens for default
    (committed-path) runs.  The floor lives in the checker; this test
    only pins a very loose sanity bound (spawning workers per batch can
    never be faster than reusing them by more than noise).
    """
    report = {
        "cpu_count": os.cpu_count() or 1,
        "sweep_dispatch": measure_sweep_dispatch(),
    }
    out_path = os.environ.get("BENCH_SWEEP_OUT", BENCH_SWEEP_PATH)
    with open(out_path, "w") as fh:
        json.dump(report, fh, indent=1, sort_keys=True)
        fh.write("\n")
    if out_path == BENCH_SWEEP_PATH:
        _refresh_generated(
            EXECUTORS_DOC_PATH,
            SWEEP_LINE_BEGIN,
            SWEEP_LINE_END,
            render_sweep_line(report),
        )
    benchmark.extra_info["bench_sweep"] = report
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    assert report["sweep_dispatch"]["reuse_speedup"] >= 0.8, report


def test_connectivity_check(benchmark):
    cells = random_blob(3000, 3)
    assert benchmark(lambda: is_connected(cells))


def test_full_gather_blob_800(benchmark):
    """End-to-end gather through the facade (what users call): also
    guards the `simulate()` orchestration against overhead regressions
    relative to driving the engine directly."""
    cells = random_blob(800, 4)

    def run():
        return simulate(cells, strategy="grid", check_connectivity=False)

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    assert result.gathered
