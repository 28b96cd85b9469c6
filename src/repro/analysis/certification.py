"""Machine-checked small-``n`` bound certification.

:func:`run_certification` drives the nondeterminism explorer
(:mod:`repro.explore`) over *every* fixed polyomino of each size and
distills the exhaustive closures into one table per ``n``:

* the exact worst-case FSYNC gathering rounds over all seed shapes,
  checked against the linear budget (``40 n + 40``, the bound the
  exhaustive suite has always enforced) — and cross-checked against the
  DAG's own full-activation path, so the explorer and the engine vouch
  for each other;
* how many shapes an unrestricted SSYNC adversary can disconnect, the
  earliest violation round, and the smallest k-fairness boundary found
  among the scanned witnesses (a witness with ``fairness_k = K`` proves
  a K-fair adversary suffices to break safety);
* a D4 symmetry audit: seed shapes that are rotations/reflections of
  each other must certify to identical *verdicts* (worst-case FSYNC
  rounds and earliest violation depth).  Rotational equivariance is
  *not* assumed by the explorer (its state key only factors out
  translation), and the planner's lexicographic tie-breaks are in fact
  not rotation-equivariant — rotated seeds can traverse slightly
  different intermediate state sets — so the audit compares outcomes,
  not mechanism.  This check turns the sweep itself into an empirical
  verdict-equivariance certificate.

The minimal witness of the smallest breakable size is replayed through
the stock SSYNC scheduler before the report is returned
(``witness_verified``), so a green certification is end-to-end: search,
dedup, reconstruction, and engine agree bit for bit.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.analysis.tables import format_table
from repro.core.config import AlgorithmConfig
from repro.engine.scheduler import RoundEngine
from repro.engine.termination import run_engine
from repro.errors import InvariantError
from repro.explore.driver import PlanMemo, StateDag, explore
from repro.explore.witness import Witness, build_witness, verify_witness
from repro.grid.canonical import d4_normal_form
from repro.grid.occupancy import SwarmState
from repro.swarms.enumerate import all_polyominoes


def fsync_budget(n: int) -> int:
    """The linear round budget the exhaustive suite certifies against."""
    return 40 * n + 40


def _fsync_rounds(
    cells, cfg: AlgorithmConfig, budget: int, strategy: str = "grid"
) -> int:
    """Exact FSYNC rounds to gather (raises if the budget is blown —
    a budget violation at certified sizes is a finding, not a datum)."""
    from repro.trace.replay import grid_controller_class

    controller = grid_controller_class(strategy)(cfg)
    result = run_engine(
        RoundEngine(SwarmState(list(cells)), controller), max_rounds=budget
    )
    if not result.gathered:
        raise InvariantError(
            f"shape {sorted(cells)} failed to gather under FSYNC "
            f"within {budget} rounds"
        )
    return result.rounds


def _fsync_path_rounds(dag: StateDag) -> Optional[int]:
    """Rounds along the DAG's full-activation path (every planned mover
    activated every round), or ``None`` if the path leaves the DAG —
    must equal the engine's FSYNC rounds when the closure is complete."""
    key = dag.root
    rounds = 0
    while True:
        node = dag.nodes[key]
        if node.status == "gathered":
            return rounds
        if node.status != "open" or node.edges is None:
            return None
        full = max(node.edges, key=lambda e: len(e.choice))
        key = full.child
        rounds += 1
        if rounds > len(dag.nodes):
            return None


def certify_shape(
    cells,
    *,
    cfg: Optional[AlgorithmConfig] = None,
    max_nodes: int = 200_000,
    scan_witnesses: int = 8,
    strategy: str = "grid",
    symmetry: str = "translation",
    plan_memo: Optional[PlanMemo] = None,
) -> Dict[str, object]:
    """The certification record of one seed shape (exhaustive mode).

    ``strategy`` certifies the stock algorithm (``"grid"``) or its
    connectivity-``"tolerant"`` variant; ``symmetry="d4"`` accelerates
    the closure by folding rotations/reflections into the state key
    (verdicts only — witness scanning is skipped on D4 DAGs).
    ``plan_memo`` is the explorer's plan memo, shared across the shapes
    of a sweep; it does not change the record.
    """
    cfg = cfg or AlgorithmConfig()
    cells = sorted(cells)
    budget = fsync_budget(len(cells))
    dag = explore(
        cells, cfg=cfg, mode="exhaustive", max_nodes=max_nodes,
        strategy=strategy, symmetry=symmetry, plan_memo=plan_memo,
    )
    counts = dag.counts()
    fsync_rounds = _fsync_rounds(cells, cfg, budget, strategy)
    path_rounds = _fsync_path_rounds(dag)

    violation_depth: Optional[int] = None
    fairness_k: Optional[int] = None
    witness: Optional[Witness] = None
    broken = dag.nodes_of_status("disconnected")
    if broken:
        violation_depth = broken[0].depth
        # The earliest witness is the headline; scanning a few more
        # minimizes the reported k-fairness boundary.  D4 DAGs carry no
        # exact frames, so witness extraction is skipped there (the
        # verdict fields still stand).
        if symmetry == "translation":
            for node in broken[:scan_witnesses]:
                candidate = build_witness(dag, target=node.key, cfg=cfg)
                if fairness_k is None or candidate.fairness_k < fairness_k:
                    fairness_k = candidate.fairness_k
                    witness = candidate
    return {
        "cells": tuple(cells),
        "free_form": d4_normal_form(cells),
        "states": counts["total"],
        "edges": counts["edges"],
        "complete": dag.complete,
        "fsync_rounds": fsync_rounds,
        "fsync_path_rounds": path_rounds,
        "violation_depth": violation_depth,
        "fairness_k": fairness_k,
        "witness": witness,
    }


def run_certification(
    max_n: int = 6,
    min_n: int = 3,
    *,
    cfg: Optional[AlgorithmConfig] = None,
    max_nodes: int = 200_000,
    scan_witnesses: int = 8,
    verify: bool = True,
    strategy: str = "grid",
    symmetry: str = "translation",
) -> Dict[str, object]:
    """Certify every fixed polyomino of sizes ``min_n..max_n``.

    Returns ``{"rows": [...], "overall_ok": bool, "witness": ...}``;
    see the module docstring for the row fields.  ``verify=True``
    replays each size's minimal-``k`` witness through the stock SSYNC
    scheduler and records the bit-identity verdict.  ``strategy``
    selects the certified grid-state algorithm (stock ``"grid"`` or the
    connectivity-``"tolerant"`` variant); ``symmetry="d4"`` folds
    rotations/reflections into the explorer's dedup key — verdicts must
    (and, per the D4 audit, empirically do) match the translation-only
    sweep, but witness extraction/verification is skipped.  All shapes
    share one plan memo, so each distinct explorer state is planned
    once per call.
    """
    cfg = cfg or AlgorithmConfig()
    rows: List[Dict[str, object]] = []
    headline: Optional[Witness] = None
    overall_ok = True
    plan_memo: PlanMemo = {}
    for n in range(min_n, max_n + 1):
        shapes = [certify_shape(
            shape,
            cfg=cfg,
            max_nodes=max_nodes,
            scan_witnesses=scan_witnesses,
            strategy=strategy,
            symmetry=symmetry,
            plan_memo=plan_memo,
        ) for shape in all_polyominoes(n)]
        complete = all(s["complete"] for s in shapes)
        max_fsync = max(s["fsync_rounds"] for s in shapes)
        bound = fsync_budget(n)
        path_consistent = all(
            s["fsync_path_rounds"] == s["fsync_rounds"] for s in shapes
        )
        breakable = [s for s in shapes if s["violation_depth"] is not None]

        # D4 audit: symmetric seed shapes must reach identical verdicts.
        # DAG sizes are deliberately excluded — the planner's lex
        # tie-breaks are translation- but not rotation-equivariant, so
        # rotated seeds may visit slightly different intermediate
        # states while certifying to the same bounds.
        groups: Dict[tuple, List[tuple]] = {}
        for s in shapes:
            signature = (
                s["fsync_rounds"],
                s["violation_depth"],
            )
            groups.setdefault(s["free_form"], []).append(signature)
        symmetry_consistent = all(
            len(set(signatures)) == 1 for signatures in groups.values()
        )

        min_violation = (
            min(s["violation_depth"] for s in breakable)
            if breakable
            else None
        )
        fairness_values = [
            s["fairness_k"] for s in breakable if s["fairness_k"] is not None
        ]
        min_fairness = min(fairness_values) if fairness_values else None

        witness_verified: Optional[bool] = None
        with_witness = [s for s in breakable if s["witness"] is not None]
        if verify and with_witness:
            best = min(
                with_witness,
                key=lambda s: (s["fairness_k"], s["violation_depth"]),
            )
            witness_verified = verify_witness(best["witness"], cfg=cfg)
            if headline is None:
                headline = best["witness"]

        ok = (
            complete
            and max_fsync <= bound
            and path_consistent
            and symmetry_consistent
            and witness_verified is not False
        )
        overall_ok = overall_ok and ok
        rows.append(
            {
                "n": n,
                "shapes": len(shapes),
                "free_shapes": len(groups),
                "states": sum(s["states"] for s in shapes),
                "complete": complete,
                "max_fsync_rounds": max_fsync,
                "fsync_bound": bound,
                "fsync_bound_ok": max_fsync <= bound,
                "fsync_path_consistent": path_consistent,
                "breakable_shapes": len(breakable),
                "min_violation_round": min_violation,
                "min_fairness_k": min_fairness,
                "symmetry_consistent": symmetry_consistent,
                "witness_verified": witness_verified,
                "ok": ok,
            }
        )
    return {
        "min_n": min_n,
        "max_n": max_n,
        "strategy": strategy,
        "symmetry": symmetry,
        "rows": rows,
        "overall_ok": overall_ok,
        "witness": headline,
    }


def format_certification(report: Dict[str, object]) -> str:
    """Render the per-``n`` certification rows as an aligned table."""
    headers = [
        "n",
        "shapes",
        "states",
        "fsync worst",
        "bound",
        "breakable",
        "first break",
        "min k",
        "symmetric",
        "verified",
        "ok",
    ]
    table_rows = [
        [
            row["n"],
            row["shapes"],
            row["states"],
            row["max_fsync_rounds"],
            row["fsync_bound"],
            row["breakable_shapes"],
            (
                row["min_violation_round"]
                if row["min_violation_round"] is not None
                else "-"
            ),
            (
                row["min_fairness_k"]
                if row["min_fairness_k"] is not None
                else "-"
            ),
            "yes" if row["symmetry_consistent"] else "NO",
            (
                "yes"
                if row["witness_verified"]
                else ("-" if row["witness_verified"] is None else "NO")
            ),
            "yes" if row["ok"] else "NO",
        ]
        for row in report["rows"]
    ]
    title = (
        f"SSYNC certification sweep "
        f"({report.get('strategy', 'grid')} strategy, "
        f"{report.get('symmetry', 'translation')} dedup), "
        f"all fixed polyominoes "
        f"n={report['min_n']}..{report['max_n']}"
    )
    return format_table(headers, table_rows, title=title)
