#!/usr/bin/env python3
"""The repository benchmark: whole ``simulate()`` gathers and the
certification explorer, end to end and split into layers.

Run from the repository root::

    python3 perfbench/run.py --workload contour_fsync --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --self-test

``--trace 0`` measures the end-to-end metrics with nothing wrapped but
the round stamps.  ``--trace 1`` is the separate traced run: one
untraced pass, then two passes with every layer of ``spans.LAYERS``
wrapped, printing the per-layer metrics; it also checks that traced and
untraced passes give identical outputs and that the exact counts repeat.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  See
``perfbench/README.md`` for the workloads, metrics and predictions.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SPANS_DIR = os.path.join(HERE, "out")
#: Set-up repetitions per run; ``setup_s`` reports their median.
SETUP_REPS = 3
#: Traced passes per ``--trace 1`` run (their exact counts must agree).
TRACED_PASSES = 2
#: Seconds ``workloads.calibration_loop`` takes on the reference machine.
CAL_REF_S = 0.009


def load_repro() -> float:
    """Import the package from this checkout's ``src``; returns seconds."""
    start = time.perf_counter()
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    import repro

    if not os.path.abspath(repro.__file__).startswith(src + os.sep):
        raise ImportError(f"repro imported from {repro.__file__}, not {src}")
    import repro.analysis.certification  # noqa: F401
    import repro.api  # noqa: F401
    import repro.explore.driver  # noqa: F401
    import repro.explore.witness  # noqa: F401
    import repro.trace.recorder  # noqa: F401
    import repro.trace.replay  # noqa: F401

    return time.perf_counter() - start


def quantile(values, q: int) -> float:
    """The ``q``-th percentile, interpolated within the samples."""
    if len(values) < 2:
        return float(values[0])
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def run_pass(wl, ops):
    """Run one pass; returns ``(outcomes, failures)``."""
    from workloads import Outcome

    outcomes, failures = [], []
    for op in ops:
        start = time.perf_counter()
        try:
            out = wl.run(op)
            out.error = wl.check(op, out)
        except Exception as exc:  # a raising operation is a failed one
            out = Outcome(
                label=str(op),
                wall_s=time.perf_counter() - start,
                error=f"{type(exc).__name__}: {exc}",
            )
        out.detail = None
        # Free this operation's garbage before the next one starts, so
        # that neither its timing nor the peak memory depends on when
        # the cyclic collector happened to run.
        gc.collect()
        outcomes.append(out)
        if out.error:
            failures.append(out.error)
    return outcomes, failures


def consistency(wl, passes, failures) -> None:
    """Whole-pass checks, and identical outputs across every pass."""
    try:
        error = wl.verify_pass(passes[0])
    except Exception as exc:
        error = f"{type(exc).__name__}: {exc}"
    if error:
        failures.append(error)
    for outs in passes[1:]:
        for first, out in zip(passes[0], outs):
            if first.digest != out.digest and not out.error:
                failures.append(f"{out.label}: output differs between passes")
                out.error = "differs"


def metric(value, unit):
    return {"value": value, "unit": unit}


# ----------------------------------------------------------------------
def pass_metrics(outcomes):
    """End-to-end values over one pass's operations."""
    round_ms = [x for o in outcomes for x in o.round_ms]
    gather_ms = [x for o in outcomes for x in o.gather_ms]
    busy_ms = sum(round_ms)
    return {
        "ms_per_round": busy_ms / len(round_ms),
        "round_ms_p50": quantile(round_ms, 50),
        "round_ms_p90": quantile(round_ms, 90),
        "gather_ms_p50": quantile(gather_ms, 50),
        "gather_ms_p90": quantile(gather_ms, 90),
        "states_per_s": 1e3 * sum(o.states for o in outcomes) / busy_ms,
    }


UNITS = {
    "ms_per_round": "ms", "round_ms_p50": "ms", "round_ms_p90": "ms",
    "gather_ms_p50": "ms", "gather_ms_p90": "ms", "states_per_s": "1/s",
}


def measure(wl, seconds: float):
    """End-to-end metrics over whole passes for at least ``seconds``.

    Other load on a shared machine drifts its speed by tens of percent
    over tens of seconds.  The workload's clock samples a fixed
    calibration loop about once a second; each pass's timings are
    scaled by ``CAL_REF_S`` over the median sample of that pass, i.e.
    reported at the reference machine speed.  Each metric is computed
    per pass, and the run reports the median over its passes."""
    ops = wl.ops()
    passes, failures, rows = [], [], []
    deadline = time.perf_counter() + seconds
    while True:
        calibrations = len(wl.clock.samples)
        outcomes, failed = run_pass(wl, ops)
        passes.append(outcomes)
        failures += failed
        speed = CAL_REF_S / statistics.median(
            wl.clock.samples[calibrations:] or wl.clock.samples[-1:]
        )
        ok = [o for o in outcomes if not o.error]
        if ok:
            for out in ok:
                out.round_ms = [x * speed for x in out.round_ms]
                out.gather_ms = [x * speed for x in out.gather_ms]
            rows.append(pass_metrics(ok))
            print(json.dumps({"pass": len(passes), "speed": speed, **rows[-1]}),
                  flush=True)
        for out in outcomes:
            out.round_ms = out.gather_ms = []  # keep memory flat
        if time.perf_counter() >= deadline:
            break
    consistency(wl, passes, failures)
    if not rows:
        return None, passes, failures
    metrics = {
        key: metric(statistics.median(r[key] for r in rows), unit)
        for key, unit in UNITS.items()
    }
    metrics["peak_rss_mb"] = metric(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"
    )
    return metrics, passes, failures


# ----------------------------------------------------------------------
class Counts:
    """Exact work counts taken at layer boundaries during a traced pass."""

    def __init__(self):
        self.reset()

    def reset(self):
        self.moves_applied = 0
        self.robots_merged = 0
        self.runs_started = 0

    def observers(self):
        def on_apply(args, merged):
            self.moves_applied += len(args[1])
            self.robots_merged += merged

        def on_start(args, started):
            self.runs_started += len(started)

        return {
            "grid.occupancy.SwarmState.apply_moves": on_apply,
            "core.runs.RunManager.start_runs": on_start,
        }


def measure_traced(wl, seconds: float, spans_path: str):
    """Per-layer metrics: one untraced pass, then traced passes."""
    from spans import LAYER_NAMES, Tracer

    ops = wl.ops()
    passes, failures = [], []
    outcomes, failed = run_pass(wl, ops)
    passes.append(outcomes)
    failures += failed
    untraced_s = sum(o.wall_s for o in outcomes)

    counts = Counts()
    tracer = Tracer(counts.observers())
    per_pass = []
    deadline = time.perf_counter() + seconds
    with tracer:
        while len(per_pass) < TRACED_PASSES or time.perf_counter() < deadline:
            counts.reset()
            tracer.reset()
            outcomes, failed = run_pass(wl, ops)
            passes.append(outcomes)
            failures += failed
            rounds = sum(o.rounds for o in outcomes) or 1
            traced_s = sum(o.wall_s for o in outcomes)
            traced = [o for o in outcomes if o.trace_bytes]
            per_pass.append({
                "layers": tracer.summary(),
                "moves_applied": counts.moves_applied,
                "robots_merged": counts.robots_merged,
                "runs_started": counts.runs_started,
                "bfs_fallback_ratio": tracer.count_calls(
                    "grid.connectivity.connected_components",
                    outside="grid.connectivity.locally_connected_after",
                ) / rounds,
                "explore.dedup_ratio": (
                    sum(o.states for o in outcomes) / rounds
                    if wl.name == "explore_certify" else 0.0
                ),
                "trace_bytes_per_round": (
                    sum(o.trace_bytes for o in traced)
                    / sum(o.rounds for o in traced)
                    if traced else 0.0
                ),
                "coverage": tracer.top_level_s() / traced_s,
                "overhead": traced_s / untraced_s,
            })
    consistency(wl, passes, failures)

    exact = ("moves_applied", "robots_merged", "runs_started",
             "bfs_fallback_ratio", "explore.dedup_ratio",
             "trace_bytes_per_round")
    first = per_pass[0]
    for other in per_pass[1:]:
        for key in exact:
            if other[key] != first[key]:
                failures.append(f"count {key} differs between traced passes")
        for label, row in first["layers"].items():
            if other["layers"][label]["calls"] != row["calls"]:
                failures.append(f"calls of {label} differ between passes")

    metrics = {}
    for label in LAYER_NAMES:
        rows = [p["layers"].get(label) for p in per_pass]
        rows = [r for r in rows if r is not None]
        metrics[f"{label}.calls"] = metric(
            rows[0]["calls"] if rows else 0, "count"
        )
        for key in ("busy_ms", "self_ms"):
            value = statistics.median(r[key] for r in rows) if rows else 0.0
            metrics[f"{label}.{key}"] = metric(value, "ms")
    for key, unit in (("moves_applied", "count"),
                      ("robots_merged", "count"),
                      ("runs_started", "count"),
                      ("bfs_fallback_ratio", "1/round"),
                      ("explore.dedup_ratio", "ratio"),
                      ("trace_bytes_per_round", "B/round")):
        metrics[key] = metric(first[key], unit)
    metrics["trace.coverage"] = metric(
        statistics.median(p["coverage"] for p in per_pass), "ratio"
    )
    metrics["trace.overhead"] = metric(
        statistics.median(p["overhead"] for p in per_pass), "ratio"
    )

    os.makedirs(os.path.dirname(spans_path), exist_ok=True)
    tracer.write(spans_path)
    report = layer_report(metrics, per_pass, untraced_s, spans_path)
    return (metrics, report), passes, failures


def layer_report(metrics, per_pass, untraced_s, spans_path) -> str:
    from spans import LAYER_NAMES

    total = sum(
        metrics[f"{label}.self_ms"]["value"] for label in LAYER_NAMES
    ) or 1.0
    lines = [f"{'layer':<48} {'calls':>9} {'busy_ms':>10} "
             f"{'self_ms':>10} {'self%':>6}"]
    for label in sorted(
        LAYER_NAMES, key=lambda lb: -metrics[f"{lb}.self_ms"]["value"]
    ):
        calls = metrics[f"{label}.calls"]["value"]
        if not calls:
            continue
        self_ms = metrics[f"{label}.self_ms"]["value"]
        lines.append(
            f"{label:<48} {calls:>9} "
            f"{metrics[f'{label}.busy_ms']['value']:>10.1f} "
            f"{self_ms:>10.1f} {100 * self_ms / total:>5.1f}%"
        )
    lines.append(
        f"coverage: top-level spans cover "
        f"{100 * metrics['trace.coverage']['value']:.2f}% of traced wall time"
    )
    lines.append(
        f"overhead: traced pass {metrics['trace.overhead']['value']:.3f}x "
        f"the untraced pass ({untraced_s:.3f} s) over {len(per_pass)} "
        f"traced passes; spans of the last written to "
        f"{os.path.relpath(spans_path, ROOT)}"
    )
    return "\n".join(lines)


# ----------------------------------------------------------------------
def child_import_s() -> float:
    """Import time of the package in a fresh interpreter."""
    code = (
        f"import sys; sys.path.insert(0, {HERE!r}); "
        f"import run; print(run.load_repro())"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], stdout=subprocess.PIPE, text=True,
        check=True, timeout=60,
    )
    return float(proc.stdout)


def run_one(args) -> int:
    try:
        imports = [load_repro()]
    except ImportError as exc:
        print(f"cannot import repro from {ROOT}/src: {exc}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS, Clock

    # Set-up is repeated: the import in fresh interpreters, the inputs
    # and warm-up here; setup_s is the sum of the two medians.
    imports += [child_import_s() for _ in range(SETUP_REPS - 1)]
    setups = []
    for _ in range(SETUP_REPS):
        wl = WORKLOADS[args.workload](Clock(calibrate=not args.trace))
        start = time.perf_counter()
        wl.setup(args.seed)
        setups.append(time.perf_counter() - start)
    setup_s = statistics.median(imports) + statistics.median(setups)
    print(json.dumps({
        "workload": args.workload, "seed": args.seed,
        "inputs": wl.describe(), "import_s": imports, "setup_s": setups,
    }), flush=True)

    if args.trace:
        spans_path = os.path.join(
            SPANS_DIR, f"{args.workload}-seed{args.seed}.spans.tsv.gz"
        )
        result, passes, failures = measure_traced(wl, args.seconds, spans_path)
        if result is not None:
            metrics, report = result
            print(report)
    else:
        result, passes, failures = measure(wl, args.seconds)
        if result is not None:
            metrics = {"setup_s": metric(setup_s, "s"), **result}
    for error in failures[:20]:
        print(f"FAILED: {error}", file=sys.stderr)
    attempted = sum(len(outs) for outs in passes)
    failed = sum(1 for outs in passes for o in outs if o.error)
    print(json.dumps({
        "correct": not failures and result is not None,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics if result is not None else {},
    }))
    return 0


def run_all(args) -> int:
    """Every workload, each in its own process (peak RSS is per
    process); prints one combined result line."""
    from workloads import WORKLOADS

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False,
        )
        lines = proc.stdout.strip().splitlines()
        print(f"== {name}\n" + "\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0 or not lines:
            combined["correct"] = False
            continue
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for key, value in result["metrics"].items():
            combined["metrics"][f"{name}.{key}"] = value
            if not args.trace:
                print(f"  {key:<16} {value['value']:>14.4f} {value['unit']}")
        print(f"  correct={result['correct']} attempted={result['attempted']}"
              f" failed={result['failed']}", flush=True)
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def main(argv=None) -> int:
    sys.path.insert(0, HERE)
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--self-test", action="store_true",
        help="every workload traced and untraced: identical outputs, "
        "repeating counts (same as --workload all --trace 1 --seconds 0)",
    )
    args = parser.parse_args(argv)
    if args.self_test:
        args.workload, args.trace, args.seconds = "all", 1, 0.0
    if args.workload is None:
        parser.error("--workload is required")
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
