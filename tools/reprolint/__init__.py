"""reprolint — project-specific static analysis for the repro codebase.

The engine's whole value proposition is *bit-identical* behavior:
goldens pin the seed's trajectories, incremental and full-rescan planning
must agree exactly, and SSYNC runs must be reproducible from a seed.
The dynamic guards (golden-equivalence suites, incremental==full-rescan
differentials) can only catch a nondeterministic code path that
misbehaves *on this machine, on this run*.  reprolint is the static
counterpart: an AST-level analyzer that proves, at lint time, that
engine code cannot depend on unseeded randomness, wall-clock time,
unordered iteration, or mutable shared state in the per-run planner.

Rule families (catalogue + rationale in ``docs/lint.md``):

* **D1** — no unseeded/module-level RNG in ``src/repro``; only
  ``random.Random(seed)`` instances threaded from config.
* **D2** — no wall-clock reads or ``id()``-keyed ordering in the
  ordering-sensitive layers (``core/``, ``engine/``, ``grid/``).
* **D3** — no unordered (set / ``dict.keys``) iteration feeding lists,
  event emission, or yields in the ordering-sensitive layers without an
  enclosing ``sorted()``.
* **P1** — the per-run planner's purity contract: ``_plan_one`` and
  everything it transitively calls within ``core/`` must not write to
  ``self``, globals, or its shared-context arguments.
* **F1** — facade discipline: no imports of the legacy ``gather`` entry
  point outside the shim surface, and every registered scheduler
  declares ``option_names``.
* **E1** — the event-kind tables in ``docs/schedulers.md`` and the
  kinds actually emitted by the engines must match exactly.
* **A1** — no bare ``assert`` outside tests/benchmarks (stripped under
  ``python -O``); use ``repro.errors`` exceptions.

Findings are suppressed inline with::

    something_flagged()  # reprolint: ok[D3] <reason>

(or the same comment alone on the preceding line).  Run with
``python -m tools.reprolint src tools benchmarks``.
"""

from tools.reprolint.engine import (
    Finding,
    FileRule,
    ProjectRule,
    Runner,
    SourceFile,
)
from tools.reprolint.rules import default_rules

__all__ = [
    "Finding",
    "FileRule",
    "ProjectRule",
    "Runner",
    "SourceFile",
    "default_rules",
]
