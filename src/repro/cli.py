"""Command-line interface: ``python -m repro <command>``.

Every simulation command runs through the unified facade
(:func:`repro.api.simulate`): ``--strategy``/``--scheduler`` select any
registered workload/time model, ``--seed`` pins everything stochastic,
and ``--json`` prints a machine-readable summary to stdout.  The SSYNC
schedulers (``--scheduler ssync`` / ``ssync-faulty``) add
``--activation``, ``--activation-p``, ``--rr-k``, ``--k-fairness``,
``--fault-rate``, ``--crash-rate`` and ``--byzantine-rate``; the
``async-lcm`` scheduler adds ``--staleness`` (see docs/schedulers.md —
flags a scheduler does not declare are rejected loudly).

Commands
--------
``gather``   run one strategy on a generated swarm, print a summary
``watch``    print per-round frames while gathering (terminal animation)
``figures``  regenerate the paper's Figures 1-21
``scale``    run the E1 scaling experiment for one family (``--jobs N``
             fans the sizes out over a process pool)
``ablate``   sweep one AlgorithmConfig field (parallel with ``--jobs``)
``compare``  round counts across strategies, each on its worst-case
             family (E2-E4; ``--strategies`` picks the columns)
``sweep``    durable sweeps as directories: ``submit`` writes the job
             spec, ``run`` executes it over the persistent worker pool
             (``--detach`` backgrounds it; interrupted grid jobs resume
             from their trace checkpoints), ``status``/``collect``
             report progress and results from any process
``serve``    simulation-as-a-service: HTTP API + live dashboard over a
             durable run registry (see docs/service.md)
``explore``  branch SSYNC activation subsets into a deduped state DAG,
             extract replayable connectivity witnesses, export DOT/HTML
             (see docs/explorer.md)
``certify``  exhaustive small-n certification sweep over all fixed
             polyominoes: machine-checked FSYNC bound tables plus the
             verified SSYNC counterexample
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from typing import List, Optional

from repro.analysis.experiments import (
    SweepJob,
    run_ablation,
    run_scaling,
)
from repro.analysis.fitting import fit_linear, scaling_exponent
from repro.analysis.tables import format_table
from repro.api import SCHEDULERS, STRATEGIES, simulate
from repro.core.algorithm import GatherOnGrid
from repro.core.config import AlgorithmConfig
from repro.engine.protocols import Scenario, SimContext
from repro.swarms.generators import FAMILIES
from repro.viz.ascii_art import render_with_marks

#: Families resolvable by at least one strategy: the swarm generators
#: plus the strategy-specific ones (Euclidean worst case, chains).
FAMILY_CHOICES = [
    *sorted(FAMILIES),
    "circle",
    "hairpin",
    "zigzag",
    "rectangle",
]

#: Default ``compare`` columns — the E2-E4 lineup, in the legacy order.
COMPARE_DEFAULT = ["grid", "euclidean", "async_greedy", "global"]


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--family",
        default="ring",
        choices=FAMILY_CHOICES,
        help="swarm family (default: ring)",
    )
    p.add_argument(
        "-n", type=int, default=100, help="target robot count (default 100)"
    )
    p.add_argument(
        "--strategy",
        default="grid",
        choices=sorted(STRATEGIES),
        help="registered strategy to run (default: grid)",
    )
    p.add_argument(
        "--scheduler",
        default=None,
        choices=sorted(SCHEDULERS),
        help="time model (default: the strategy's canonical scheduler)",
    )
    p.add_argument(
        "--seed",
        type=int,
        default=None,
        help="seed for stochastic families/schedulers (reproducible runs)",
    )
    # SSYNC scheduler knobs (only valid with --scheduler ssync or
    # ssync-faulty; the facade rejects other combinations loudly).
    p.add_argument(
        "--activation",
        default=None,
        choices=["uniform", "round_robin", "adversarial"],
        help="ssync activation policy (default: uniform)",
    )
    p.add_argument(
        "--activation-p",
        type=float,
        default=None,
        help="ssync uniform activation probability (default 0.5)",
    )
    p.add_argument(
        "--rr-k",
        type=int,
        default=None,
        help="ssync round-robin class count (default 3)",
    )
    p.add_argument(
        "--k-fairness",
        type=int,
        default=None,
        help="ssync fairness bound: activate everyone within k rounds "
        "(default 8)",
    )
    p.add_argument(
        "--fault-rate",
        type=float,
        default=None,
        help="per-robot per-round transient sleep-fault probability",
    )
    p.add_argument(
        "--crash-rate",
        type=float,
        default=None,
        help="per-robot per-round crash-stop hazard",
    )
    p.add_argument(
        "--byzantine-rate",
        type=float,
        default=None,
        help="fraction of robots drawn byzantine at the start of an "
        "ssync/ssync-faulty run (stale views, off-plan hops, playing "
        "dead)",
    )
    p.add_argument(
        "--staleness",
        type=int,
        default=None,
        help="async-lcm only: max look/move lag in rounds (0 = FSYNC-"
        "identical full activation)",
    )
    p.add_argument(
        "--radius", type=int, default=None, help="viewing radius override"
    )
    p.add_argument(
        "--interval", type=int, default=None, help="run start interval L"
    )
    p.add_argument(
        "--full-scan",
        action="store_true",
        help="disable the incremental per-round pipeline (A/B baseline)",
    )


#: Exceptions the facade raises for bad strategy/scheduler/flag
#: combinations — argparse validates each flag alone, the facade the
#: combination.  TypeError covers scheduler-option mismatches (e.g.
#: ``--fault-rate`` with ``--scheduler fsync``), whose message names the
#: valid registry keys.
_USAGE_ERRORS = (KeyError, ValueError, TypeError)


def _fail(exc: BaseException) -> int:
    """Clean CLI error for invalid strategy/family/scheduler combos."""
    if isinstance(exc, OSError):
        msg = str(exc)  # args[0] alone would print the bare errno
    else:
        msg = exc.args[0] if exc.args else str(exc)
    print(f"error: {msg}", file=sys.stderr)
    return 2


def _scheduler_options(args: argparse.Namespace) -> dict:
    """SSYNC flags the user actually set, as ``simulate()`` options.

    Unset flags are omitted entirely, so plain fsync/async runs carry no
    scheduler options and incompatible combinations (an SSYNC flag with
    a non-SSYNC scheduler) fail in the facade with a message naming the
    registered schedulers.
    """
    mapping = {
        "activation": "activation",
        "activation_p": "activation_p",
        "rr_k": "rr_k",
        "k_fairness": "k_fairness",
        "fault_rate": "sleep_rate",
        "crash_rate": "crash_rate",
        "byzantine_rate": "byzantine_rate",
        "staleness": "staleness",
    }
    out = {}
    for attr, option in mapping.items():
        value = getattr(args, attr, None)
        if value is not None:
            out[option] = value
    return out


def _config(args: argparse.Namespace) -> AlgorithmConfig:
    kwargs = {}
    if getattr(args, "interval", None) is not None:
        kwargs["run_start_interval"] = args.interval
    if getattr(args, "full_scan", False):
        kwargs["incremental"] = False
    radius = getattr(args, "radius", None)
    if radius is not None:
        return AlgorithmConfig.with_radius(radius, **kwargs)
    return AlgorithmConfig(**kwargs)


def cmd_gather(args: argparse.Namespace) -> int:
    try:
        result = simulate(
            Scenario(family=args.family, n=args.n),
            strategy=args.strategy,
            scheduler=args.scheduler,
            config=_config(args),
            seed=args.seed,
            **_scheduler_options(args),
        )
    except _USAGE_ERRORS as exc:
        return _fail(exc)
    if args.json:
        print(json.dumps({"family": args.family, **result.summary()}))
    else:
        print(
            f"{args.family}(n={result.robots_initial}): gathered="
            f"{result.gathered} rounds={result.rounds} "
            f"rounds/n={result.rounds_per_robot():.2f}"
        )
        print("events:", result.events.counts())
    return 0 if result.gathered else 1


def cmd_watch(args: argparse.Namespace) -> int:
    try:
        cfg = _config(args)
    except _USAGE_ERRORS as exc:
        return _fail(exc)
    options = {}
    ctrl: Optional[GatherOnGrid] = None
    if args.strategy == "grid":
        ctrl = GatherOnGrid(cfg)
        options["controller"] = ctrl

    # Resolve the scenario through the strategy so chain/euclidean
    # family names work here too, then pass the cells as an explicit
    # payload (the initial frame and the run must agree).
    try:
        cells = STRATEGIES[args.strategy].resolve(
            Scenario(family=args.family, n=args.n),
            SimContext(seed=args.seed),
        )
    except _USAGE_ERRORS as exc:
        return _fail(exc)
    if any(
        not (isinstance(x, int) and isinstance(y, int)) for x, y in cells
    ):
        return _fail(
            ValueError(
                f"watch renders integer grid cells; strategy "
                f"{args.strategy!r} has continuous state"
            )
        )
    print(f"--- round 0: {len(set(cells))} robots ---")
    print(render_with_marks(sorted(set(cells)), {}))

    def show(round_index: int, state) -> None:
        marks = (
            {r.robot: "R" for r in ctrl.run_manager.runs.values()}
            if ctrl is not None
            else {}
        )
        runs = f", {ctrl.active_run_count} runs" if ctrl is not None else ""
        print(f"\n--- round {round_index + 1}: {len(state)} robots{runs} ---")
        print(render_with_marks(state, marks))

    try:
        result = simulate(
            Scenario(payload=cells),
            strategy=args.strategy,
            scheduler=args.scheduler,
            config=cfg,
            seed=args.seed,
            max_rounds=args.max_rounds,
            on_round=show,
            **options,
            **_scheduler_options(args),
        )
    except _USAGE_ERRORS as exc:
        return _fail(exc)
    if result.gathered:
        print(f"\ngathered after {result.rounds} rounds")
        return 0
    reason = (
        "connectivity lost"
        if result.events.of_kind("connectivity_lost")
        else "round budget exhausted"
    )
    print(f"\nnot gathered after {result.rounds} rounds ({reason})")
    return 1


def cmd_figures(args: argparse.Namespace) -> int:
    from repro.viz.figures import FIGURES, figure

    names = args.names or sorted(
        FIGURES, key=lambda s: int(s.removeprefix("fig"))
    )
    for name in names:
        print("=" * 72)
        print(figure(name))
        print()
    return 0


def cmd_scale(args: argparse.Namespace) -> int:
    sizes = args.sizes or [args.n, args.n * 2, args.n * 4]
    try:
        points = run_scaling(
            args.family,
            sizes,
            _config(args),
            strategy=args.strategy,
            scheduler=args.scheduler,
            scheduler_options=_scheduler_options(args),
            check_connectivity=False,
            seeds=(
                [args.seed] * len(sizes) if args.seed is not None else None
            ),
            workers=args.jobs,
        )
    except _USAGE_ERRORS as exc:
        return _fail(exc)
    ns = [p.n for p in points]
    rnds = [max(p.rounds, 1) for p in points]
    exp = scaling_exponent(ns, rnds)
    lin = fit_linear(ns, rnds)
    if args.json:
        print(
            json.dumps(
                {
                    "family": args.family,
                    "strategy": args.strategy,
                    "scheduler": points[0].scheduler if points else None,
                    "exponent": round(exp, 4),
                    "slope": round(lin.coefficients[0], 4),
                    "r_squared": round(lin.r_squared, 4),
                    "points": [
                        {
                            "n": p.n,
                            "diameter": p.diameter,
                            "rounds": p.rounds,
                            "gathered": p.gathered,
                            "merges": p.merges,
                        }
                        for p in points
                    ],
                }
            )
        )
        return 0
    rows = [
        (p.n, p.diameter, p.rounds, f"{p.rounds_per_n:.2f}") for p in points
    ]
    print(
        format_table(
            ["n", "diameter", "rounds", "rounds/n"],
            rows,
            title=(
                f"[{args.family}] exponent {exp:.2f} slope "
                f"{lin.coefficients[0]:.2f} (R2 {lin.r_squared:.3f})"
            ),
        )
    )
    return 0


def cmd_ablate(args: argparse.Namespace) -> int:
    results = run_ablation(
        args.param,
        args.values,
        args.family,
        args.n,
        max_rounds=args.max_rounds,
        workers=args.jobs,
    )
    rows = [
        (v, "stalled" if r < 0 else r) for v, r in results.items()
    ]
    print(
        format_table(
            [args.param, "rounds"],
            rows,
            title=f"ablation of {args.param} on {args.family}(n~{args.n})",
        )
    )
    return 0 if all(r >= 0 for r in results.values()) else 1


def cmd_compare(args: argparse.Namespace) -> int:
    strategies = args.strategies or COMPARE_DEFAULT
    sizes = args.sizes or [16, 32, 64]
    rows = []
    for n in sizes:
        row: List = [n]
        for key in strategies:
            strat = STRATEGIES[key]
            result = simulate(
                strat.compare_scenario(n),
                strategy=key,
                check_connectivity=False,
                seed=args.seed,
            )
            row.append(result.rounds)
        rows.append(tuple(row))
    if args.json:
        print(
            json.dumps(
                {
                    "strategies": list(strategies),
                    "rows": [
                        {
                            "n": row[0],
                            **{
                                key: rounds
                                for key, rounds in zip(strategies, row[1:])
                            },
                        }
                        for row in rows
                    ],
                }
            )
        )
        return 0
    print(
        format_table(
            ["n", *(STRATEGIES[k].compare_label for k in strategies)],
            rows,
            title="rounds to gather, worst-case family per model",
        )
    )
    return 0


# ----------------------------------------------------------------------
# Durable sweeps (repro.analysis.orchestrator)
# ----------------------------------------------------------------------
def _sweep_workers(jobs: Optional[int]) -> Optional[int]:
    """``--jobs`` for sweep runs: 0 = one worker per CPU; None = the
    orchestrator default (min(4, CPUs)); negative fails in the
    orchestrator with a real message."""
    if jobs == 0:
        return os.cpu_count() or 1
    return jobs


def cmd_sweep_submit(args: argparse.Namespace) -> int:
    from repro.analysis.orchestrator import SweepJobStore

    sizes = args.sizes or [args.n, args.n * 2, args.n * 4]
    try:
        cfg = _config(args)
        options = tuple(sorted(_scheduler_options(args).items()))
        jobs = [
            SweepJob(
                family=args.family,
                n=size,
                seed=args.seed,
                cfg=cfg,
                check_connectivity=not args.no_connectivity,
                max_rounds=args.max_rounds,
                strategy=args.strategy,
                scheduler=args.scheduler,
                options=options,
            )
            for size in sizes
        ]
        store = SweepJobStore.create(args.dir, jobs)
    except (*_USAGE_ERRORS, OSError) as exc:
        return _fail(exc)
    ids = list(store.jobs())
    print(
        f"created sweep {store.root} with {len(ids)} jobs "
        f"({ids[0]} .. {ids[-1]}); run with "
        f"'python -m repro sweep run {args.dir}'"
    )
    return 0


def cmd_sweep_run(args: argparse.Namespace) -> int:
    from repro.analysis.orchestrator import SweepJobStore, run_store

    try:
        store = SweepJobStore.open(args.dir)
    except (*_USAGE_ERRORS, OSError) as exc:
        return _fail(exc)
    if args.detach:
        cmd = [
            sys.executable,
            "-m",
            "repro",
            "sweep",
            "run",
            args.dir,
            "--checkpoint-every",
            str(args.checkpoint_every),
        ]
        if args.jobs is not None:
            cmd += ["--jobs", str(args.jobs)]
        proc = subprocess.Popen(
            cmd,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
            start_new_session=True,
        )
        print(
            f"sweep running detached (pid {proc.pid}); poll with "
            f"'python -m repro sweep status {args.dir}'"
        )
        return 0

    def progress(job_id: str, point) -> None:
        print(
            f"{job_id}: n={point.n} rounds={point.rounds} "
            f"gathered={point.gathered}"
        )

    try:
        results = run_store(
            store,
            workers=_sweep_workers(args.jobs),
            checkpoint_every=args.checkpoint_every,
            on_result=progress,
        )
    except _USAGE_ERRORS as exc:
        return _fail(exc)
    print(f"{len(results)}/{len(store.jobs())} jobs done")
    return 0


def cmd_sweep_status(args: argparse.Namespace) -> int:
    from repro.analysis.orchestrator import SweepJobStore

    try:
        store = SweepJobStore.open(args.dir)
    except (*_USAGE_ERRORS, OSError) as exc:
        return _fail(exc)
    jobs = store.jobs()
    status = store.status()
    if args.json:
        counts: dict = {}
        for state in status.values():
            counts[state] = counts.get(state, 0) + 1
        print(json.dumps({"jobs": status, "counts": counts}))
        return 0
    rows = [
        (job_id, jobs[job_id].family, jobs[job_id].n, status[job_id])
        for job_id in jobs
    ]
    print(
        format_table(
            ["job", "family", "n", "state"],
            rows,
            title=f"sweep {store.root}",
        )
    )
    done = sum(1 for s in status.values() if s == "done")
    print(f"{done}/{len(status)} done")
    return 0 if done == len(status) else 1


def cmd_sweep_collect(args: argparse.Namespace) -> int:
    from repro.analysis.orchestrator import SweepJobStore

    try:
        store = SweepJobStore.open(args.dir)
    except (*_USAGE_ERRORS, OSError) as exc:
        return _fail(exc)
    status = store.status()
    points = {}
    for job_id, state in status.items():
        if state == "done":
            points[job_id] = store.result(job_id)
    complete = len(points) == len(status)
    if args.json:
        print(
            json.dumps(
                {
                    "complete": complete,
                    "results": {
                        job_id: {
                            "n": p.n,
                            "rounds": p.rounds,
                            "gathered": p.gathered,
                            "merges": p.merges,
                            "diameter": p.diameter,
                        }
                        for job_id, p in points.items()
                    },
                }
            )
        )
        return 0 if complete else 1
    rows = [
        (job_id, p.n, p.diameter, p.rounds, p.gathered)
        for job_id, p in points.items()
    ]
    print(
        format_table(
            ["job", "n", "diameter", "rounds", "gathered"],
            rows,
            title=f"sweep {store.root}: {len(points)}/{len(status)} done",
        )
    )
    return 0 if complete else 1


def cmd_serve(args: argparse.Namespace) -> int:
    from repro.service.app import ServiceApp
    from repro.service.server import ServiceServer

    try:
        app = ServiceApp(
            args.data_dir,
            workers=_sweep_workers(args.jobs),
            checkpoint_every=args.checkpoint_every,
        )
        server = ServiceServer(app, host=args.host, port=args.port)
    except (*_USAGE_ERRORS, OSError) as exc:
        return _fail(exc)
    print(
        f"serving on {server.url} (runs in {args.data_dir}); "
        f"dashboard at {server.url}/ — Ctrl-C to stop"
    )
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        print("shutting down")
    finally:
        server.shutdown()
    return 0


def cmd_explore(args: argparse.Namespace) -> int:
    from repro.explore import (
        build_witness,
        explore,
        load_witness,
        save_witness,
        verify_witness,
    )
    from repro.swarms.generators import family
    from repro.viz.stategraph import dag_to_dot, dag_to_html

    try:
        if args.replay is not None:
            with open(args.replay) as fh:
                witness = load_witness(fh)
            ok = verify_witness(witness, cfg=_config(args))
            print(
                f"witness n={len(witness.initial)} "
                f"rounds={witness.rounds} terminal={witness.terminal} "
                f"fairness_k={witness.fairness_k}: "
                f"{'replays bit-identically' if ok else 'REPLAY MISMATCH'}"
            )
            return 0 if ok else 1
        cells = family(args.family, args.n, seed=args.seed)
        dag = explore(
            cells,
            cfg=_config(args),
            mode=args.mode,
            max_nodes=args.max_nodes,
            max_depth=args.max_depth,
            beam_width=args.beam_width,
            branch_samples=args.branch_samples,
            include_stall=not args.no_stall,
            seed=args.seed if args.seed is not None else 0,
            strategy=args.strategy,
            symmetry=args.symmetry,
        )
    except (*_USAGE_ERRORS, OSError) as exc:
        return _fail(exc)
    counts = dag.counts()
    broken = dag.first("disconnected")
    witness = None
    if broken is not None and dag.symmetry == "translation":
        witness = build_witness(dag, target=broken.key)
    if args.witness is not None:
        if witness is not None:
            with open(args.witness, "w") as fh:
                save_witness(witness, fh)
        elif broken is not None:
            print(
                "note: D4-deduped DAGs carry no exact frames; re-run "
                "with --symmetry translation to extract a witness",
                file=sys.stderr,
            )
        else:
            print(
                "note: no disconnected state found; no witness written",
                file=sys.stderr,
            )
    if args.dot is not None:
        with open(args.dot, "w") as fh:
            fh.write(dag_to_dot(dag))
    if args.html is not None:
        with open(args.html, "w") as fh:
            fh.write(dag_to_html(dag, title=f"{args.family} n={args.n}"))
    if args.json:
        payload = {
            "family": args.family,
            "n": args.n,
            "mode": dag.mode,
            "strategy": dag.strategy,
            "symmetry": dag.symmetry,
            "complete": dag.complete,
            "counts": counts,
            "max_depth": dag.max_depth_reached,
            "first_violation_round": (
                witness.violation_round if witness is not None else None
            ),
            "witness_fairness_k": (
                witness.fairness_k if witness is not None else None
            ),
            "witness_verified": (
                verify_witness(witness, cfg=_config(args))
                if witness is not None
                else None
            ),
        }
        print(json.dumps(payload))
    else:
        closure = "complete closure" if dag.complete else "truncated"
        print(
            f"{args.family}(n={args.n}) {dag.mode}: "
            f"{counts['total']} states, {counts['edges']} edges "
            f"({closure}); gathered={counts.get('gathered', 0)} "
            f"disconnected={counts.get('disconnected', 0)} "
            f"open={counts.get('open', 0)}"
        )
        if witness is not None:
            print(
                f"earliest connectivity break: round "
                f"{witness.violation_round}, schedule "
                f"{[list(s) for s in witness.schedule]}, "
                f"k-fairness boundary {witness.fairness_k}"
            )
        elif dag.complete:
            print("no schedule disconnects this swarm (certified)")
    return 0


def cmd_certify(args: argparse.Namespace) -> int:
    from repro.analysis.certification import (
        format_certification,
        run_certification,
    )
    from repro.explore import save_witness

    try:
        report = run_certification(
            max_n=args.max_n,
            min_n=args.min_n,
            max_nodes=args.max_nodes,
            strategy=args.strategy,
            symmetry=args.symmetry,
        )
    except _USAGE_ERRORS as exc:
        return _fail(exc)
    witness = report["witness"]
    if args.witness is not None and witness is not None:
        with open(args.witness, "w") as fh:
            save_witness(witness, fh)
    if args.json:
        payload = {
            "min_n": report["min_n"],
            "max_n": report["max_n"],
            "strategy": report["strategy"],
            "symmetry": report["symmetry"],
            "overall_ok": report["overall_ok"],
            "rows": report["rows"],
        }
        if witness is not None:
            payload["witness"] = {
                "initial": [list(c) for c in witness.initial],
                "schedule": [list(s) for s in witness.schedule],
                "fairness_k": witness.fairness_k,
                "violation_round": witness.violation_round,
            }
        print(json.dumps(payload))
    else:
        print(format_certification(report))
        if witness is not None:
            print(
                f"example witness: initial "
                f"{[list(c) for c in witness.initial]}, schedule "
                f"{[list(s) for s in witness.schedule]}, "
                f"k-fairness boundary {witness.fairness_k}"
            )
    return 0 if report["overall_ok"] else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Asymptotically Optimal Gathering on a Grid (SPAA 2016)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gather", help="gather one swarm, print a summary")
    _add_common(p)
    p.add_argument(
        "--json", action="store_true", help="machine-readable summary"
    )
    p.set_defaults(fn=cmd_gather)

    p = sub.add_parser("watch", help="per-round terminal animation")
    _add_common(p)
    p.add_argument("--max-rounds", type=int, default=2000)
    p.set_defaults(fn=cmd_watch)

    p = sub.add_parser("figures", help="regenerate paper figures")
    p.add_argument("names", nargs="*", help="fig1 ... fig21 (default all)")
    p.set_defaults(fn=cmd_figures)

    p = sub.add_parser("scale", help="E1 scaling experiment for a family")
    _add_common(p)
    p.add_argument("--sizes", type=int, nargs="+")
    p.add_argument(
        "--jobs",
        "-j",
        type=int,
        default=None,
        help="parallel worker processes (0 = one per CPU; default serial)",
    )
    p.add_argument(
        "--json", action="store_true", help="machine-readable points"
    )
    p.set_defaults(fn=cmd_scale)

    p = sub.add_parser(
        "ablate", help="sweep one AlgorithmConfig field (E5-E7 style)"
    )
    p.add_argument("param", help="AlgorithmConfig field, e.g. max_bump_length")
    p.add_argument(
        "values", type=int, nargs="+", help="values to sweep over"
    )
    p.add_argument("--family", default="ring", help="swarm family")
    p.add_argument("-n", type=int, default=100, help="target robot count")
    p.add_argument("--max-rounds", type=int, default=None)
    p.add_argument(
        "--jobs",
        "-j",
        type=int,
        default=None,
        help="parallel worker processes (0 = one per CPU; default serial)",
    )
    p.set_defaults(fn=cmd_ablate)

    p = sub.add_parser("compare", help="E2-E4 baseline comparison")
    p.add_argument("--sizes", type=int, nargs="+")
    p.add_argument(
        "--strategies",
        nargs="+",
        choices=sorted(STRATEGIES),
        default=None,
        help=f"strategies to compare (default: {' '.join(COMPARE_DEFAULT)})",
    )
    p.add_argument("--seed", type=int, default=None)
    p.add_argument(
        "--json", action="store_true", help="machine-readable rows"
    )
    p.set_defaults(fn=cmd_compare)

    p = sub.add_parser(
        "sweep",
        help="durable sweeps: submit/run/status/collect a job directory",
    )
    ssub = p.add_subparsers(dest="sweep_command", required=True)

    ps = ssub.add_parser(
        "submit", help="write a sweep spec directory from sizes"
    )
    ps.add_argument("dir", help="sweep directory (must not exist yet)")
    _add_common(ps)
    ps.add_argument(
        "--sizes",
        type=int,
        nargs="+",
        help="robot counts to sweep (default: n, 2n, 4n)",
    )
    ps.add_argument("--max-rounds", type=int, default=None)
    ps.add_argument(
        "--no-connectivity",
        action="store_true",
        help="skip the per-round connectivity check",
    )
    ps.set_defaults(fn=cmd_sweep_submit)

    ps = ssub.add_parser(
        "run",
        help="execute unfinished jobs (resumes from trace checkpoints)",
    )
    ps.add_argument("dir", help="sweep directory")
    ps.add_argument(
        "--jobs",
        "-j",
        type=int,
        default=None,
        help="worker processes (0 = one per CPU; default min(4, CPUs))",
    )
    ps.add_argument(
        "--checkpoint-every",
        type=int,
        default=200,
        help="rounds between embedded trace checkpoints (default 200)",
    )
    ps.add_argument(
        "--detach",
        action="store_true",
        help="background the run; poll with 'sweep status'",
    )
    ps.set_defaults(fn=cmd_sweep_run)

    ps = ssub.add_parser("status", help="per-job state of a sweep")
    ps.add_argument("dir", help="sweep directory")
    ps.add_argument(
        "--json", action="store_true", help="machine-readable status"
    )
    ps.set_defaults(fn=cmd_sweep_status)

    ps = ssub.add_parser(
        "collect", help="print completed results of a sweep"
    )
    ps.add_argument("dir", help="sweep directory")
    ps.add_argument(
        "--json", action="store_true", help="machine-readable results"
    )
    ps.set_defaults(fn=cmd_sweep_collect)

    p = sub.add_parser(
        "serve",
        help="HTTP API + live dashboard over a durable run registry",
    )
    p.add_argument(
        "data_dir",
        help="registry directory for run records and traces "
        "(created if missing; restarting on the same directory "
        "recovers interrupted runs)",
    )
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument(
        "--port",
        type=int,
        default=8765,
        help="listen port (0 = ephemeral; default 8765)",
    )
    p.add_argument(
        "--jobs",
        "-j",
        type=int,
        default=None,
        help="worker processes (0 = one per CPU; default min(4, CPUs))",
    )
    p.add_argument(
        "--checkpoint-every",
        type=int,
        default=50,
        help="rounds between embedded trace checkpoints (default 50)",
    )
    p.set_defaults(fn=cmd_serve)

    p = sub.add_parser(
        "explore",
        help="branch SSYNC activations into a deduped state DAG",
    )
    p.add_argument(
        "--family",
        default="ring",
        choices=sorted(FAMILIES),
        help="swarm family (grid generators only; default: ring)",
    )
    p.add_argument(
        "-n", type=int, default=5, help="target robot count (default 5)"
    )
    p.add_argument(
        "--seed",
        type=int,
        default=None,
        help="seed for stochastic families and beam-mode subset sampling",
    )
    p.add_argument(
        "--mode",
        default="exhaustive",
        choices=["exhaustive", "beam"],
        help="exhaustive = full closure (certifiable); beam = guided, "
        "bounded search for larger swarms",
    )
    p.add_argument(
        "--max-nodes",
        type=int,
        default=200_000,
        help="node budget before the search is marked truncated",
    )
    p.add_argument(
        "--max-depth", type=int, default=None, help="depth (round) budget"
    )
    p.add_argument(
        "--beam-width",
        type=int,
        default=64,
        help="beam mode: nodes kept per depth (default 64)",
    )
    p.add_argument(
        "--branch-samples",
        type=int,
        default=24,
        help="beam mode: activation subsets sampled per node (default 24)",
    )
    p.add_argument(
        "--no-stall",
        action="store_true",
        help="drop the empty activation set from the branch lattice",
    )
    p.add_argument(
        "--strategy",
        default="grid",
        choices=["grid", "tolerant"],
        help="grid-state strategy to branch (default: grid)",
    )
    p.add_argument(
        "--symmetry",
        default="translation",
        choices=["translation", "d4"],
        help="state-key dedup group: exact translation frames "
        "(default) or d4 rotation/reflection folding (smaller DAGs; "
        "verdicts only, no witness extraction)",
    )
    p.add_argument(
        "--interval", type=int, default=None, help="run start interval L"
    )
    p.add_argument(
        "--witness",
        default=None,
        metavar="PATH",
        help="write the earliest connectivity witness as JSONL",
    )
    p.add_argument(
        "--dot",
        default=None,
        metavar="PATH",
        help="export the DAG as Graphviz DOT",
    )
    p.add_argument(
        "--html",
        default=None,
        metavar="PATH",
        help="export the DAG as a standalone HTML view",
    )
    p.add_argument(
        "--replay",
        default=None,
        metavar="PATH",
        help="verify a saved witness replays bit-identically instead "
        "of exploring",
    )
    p.add_argument(
        "--json", action="store_true", help="machine-readable summary"
    )
    p.set_defaults(fn=cmd_explore)

    p = sub.add_parser(
        "certify",
        help="exhaustive small-n certification sweep (bound tables)",
    )
    p.add_argument(
        "--min-n", type=int, default=3, help="smallest size (default 3)"
    )
    p.add_argument(
        "--max-n", type=int, default=6, help="largest size (default 6)"
    )
    p.add_argument(
        "--max-nodes",
        type=int,
        default=200_000,
        help="per-shape node budget (a truncated shape fails the sweep)",
    )
    p.add_argument(
        "--strategy",
        default="grid",
        choices=["grid", "tolerant"],
        help="grid-state strategy to certify (default: grid)",
    )
    p.add_argument(
        "--symmetry",
        default="translation",
        choices=["translation", "d4"],
        help="explorer dedup group (d4 = faster verdict-only sweeps)",
    )
    p.add_argument(
        "--witness",
        default=None,
        metavar="PATH",
        help="write the headline connectivity witness as JSONL",
    )
    p.add_argument(
        "--json", action="store_true", help="machine-readable rows"
    )
    p.set_defaults(fn=cmd_certify)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
