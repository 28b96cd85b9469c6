"""Determinism rules D1/D2/D3.

These are the static counterparts of the golden-trajectory equivalence
suite: they forbid the *sources* of nondeterminism (unseeded RNG,
wall-clock reads, identity-keyed ordering, unordered iteration feeding
ordered sinks) instead of hoping a dynamic test catches the symptom.
Rationale per rule in ``docs/lint.md``.
"""

from __future__ import annotations

import ast
from typing import Dict, List, Optional, Sequence, Set, Tuple

from tools.reprolint.engine import FileRule, Finding, SourceFile

#: The layers whose iteration order reaches trajectories, event logs, or
#: RunResult fields (goldens hash all three), plus the trace writer:
#: its delta rows come from set differences, and trace bytes are
#: compared exactly (resume byte-identity, benchmark pass digests).
ORDER_SENSITIVE_PREFIXES: Tuple[str, ...] = (
    "src/repro/core/",
    "src/repro/engine/",
    "src/repro/explore/",
    "src/repro/grid/",
    "src/repro/trace/",
)

#: Paths whose *wall-clock* reads are legitimate (D2 still flags their
#: ``id()``-keyed ordering).  The serving layer stamps run records with
#: submission/start/finish times — service metadata that never feeds a
#: simulation decision; an explicit allowlist here beats inline
#: suppressions on every ``time.time()`` because the boundary is
#: auditable in one place (and pinned by ``tests/test_reprolint.py``).
WALL_CLOCK_ALLOWED_PREFIXES: Tuple[str, ...] = (
    "src/repro/service/",
)


def _attr_base(node: ast.AST) -> Optional[str]:
    """Root ``Name.id`` of an ``a.b.c`` / ``a[k].b`` chain, else None."""
    while isinstance(node, (ast.Attribute, ast.Subscript)):
        node = node.value
    if isinstance(node, ast.Name):
        return node.id
    return None


# ----------------------------------------------------------------------
# D1 — unseeded / module-level RNG
# ----------------------------------------------------------------------
class UnseededRandomRule(FileRule):
    """D1: only ``random.Random(seed)`` instances, threaded from config.

    Flags any use of the module-level :mod:`random` API other than the
    ``Random`` constructor (``random.random()``, ``random.seed()``,
    ``random.shuffle`` passed as a callback, ...), ``from random import
    <fn>`` of anything but ``Random``, module-level RNG singletons, and
    any touch of the global :data:`numpy.random` state.  Shared global
    RNG state makes trajectories depend on *call order across
    subsystems*, and the incremental caches emit candidates in a
    different order from the full scan.
    """

    rule_id = "D1"
    title = "unseeded or module-global RNG"

    def __init__(self, prefixes: Sequence[str] = ("src/repro/",)) -> None:
        self.prefixes = tuple(prefixes)

    def applies(self, rel: str) -> bool:
        return rel.startswith(self.prefixes)

    def check_file(self, sf: SourceFile) -> List[Finding]:
        out: List[Finding] = []
        for node in ast.walk(sf.tree):
            if isinstance(node, ast.ImportFrom) and node.module == "random":
                for alias in node.names:
                    if alias.name != "Random":
                        out.append(
                            self.finding(
                                sf,
                                node,
                                f"`from random import {alias.name}` uses "
                                f"the process-global RNG; import Random "
                                f"and thread a seeded instance instead",
                            )
                        )
            elif isinstance(node, ast.Attribute):
                if (
                    isinstance(node.value, ast.Name)
                    and node.value.id == "random"
                    and node.attr != "Random"
                ):
                    out.append(
                        self.finding(
                            sf,
                            node,
                            f"`random.{node.attr}` draws from the "
                            f"process-global RNG; use a "
                            f"`random.Random(seed)` instance threaded "
                            f"from config",
                        )
                    )
                elif (
                    isinstance(node.value, ast.Name)
                    and node.value.id in ("np", "numpy")
                    and node.attr == "random"
                ):
                    out.append(
                        self.finding(
                            sf,
                            node,
                            "`numpy.random` global state is shared "
                            "across the process; use "
                            "`numpy.random.Generator` seeded from "
                            "config (via a local `default_rng(seed)`)",
                        )
                    )
        # Module/class-level RNG singletons: one shared stream whose
        # draw order depends on which code path runs first.
        body: List[ast.stmt] = list(sf.tree.body)
        for stmt in sf.tree.body:
            if isinstance(stmt, ast.ClassDef):
                body.extend(stmt.body)
        for stmt in body:
            values: List[ast.expr] = []
            if isinstance(stmt, ast.Assign):
                values.append(stmt.value)
            elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
                values.append(stmt.value)
            for value in values:
                if (
                    isinstance(value, ast.Call)
                    and isinstance(value.func, ast.Attribute)
                    and isinstance(value.func.value, ast.Name)
                    and value.func.value.id == "random"
                    and value.func.attr == "Random"
                ):
                    out.append(
                        self.finding(
                            sf,
                            stmt,
                            "module-level RNG instance: a singleton "
                            "stream couples unrelated call sites; "
                            "construct `random.Random(seed)` where the "
                            "seed is in scope",
                        )
                    )
        return out


# ----------------------------------------------------------------------
# D2 — wall clock + id()-keyed ordering
# ----------------------------------------------------------------------
_WALL_CLOCK_TIME_ATTRS = frozenset(
    {
        "time",
        "time_ns",
        "monotonic",
        "monotonic_ns",
        "perf_counter",
        "perf_counter_ns",
        "localtime",
        "gmtime",
        "ctime",
        "asctime",
    }
)
_WALL_CLOCK_DT_ATTRS = frozenset({"now", "utcnow", "today"})
_ORDERING_FUNCS = frozenset({"sorted", "min", "max"})


def _lambda_calls_id(node: ast.expr) -> bool:
    if isinstance(node, ast.Name):
        return node.id == "id"
    if isinstance(node, ast.Lambda):
        for sub in ast.walk(node.body):
            if (
                isinstance(sub, ast.Call)
                and isinstance(sub.func, ast.Name)
                and sub.func.id == "id"
            ):
                return True
    return False


class IdOrderingWallClockRule(FileRule):
    """D2: no wall-clock reads, no ``id()``-keyed ordering.

    Wall-clock time in engine/core/grid code makes behavior a function
    of when it runs; ``id()`` as a sort key orders by allocation address
    — both are invisible to seeded replay.  (Using ``id()`` for
    *identity* — set membership, dict keys that are never ordered — is
    fine and pervasive in the ring code; only ordering is flagged.)

    ``wall_clock_allow`` names path prefixes whose wall-clock reads
    are exempt (the serving layer's run-record timestamps); ``id()``
    ordering stays flagged there — allocation-address ordering is
    never legitimate.
    """

    rule_id = "D2"
    title = "wall-clock or id()-keyed ordering"

    def __init__(
        self,
        prefixes: Sequence[str] = ORDER_SENSITIVE_PREFIXES,
        *,
        wall_clock_allow: Sequence[str] = (),
    ) -> None:
        self.prefixes = tuple(prefixes)
        self.wall_clock_allow = tuple(wall_clock_allow)

    def applies(self, rel: str) -> bool:
        return rel.startswith(self.prefixes)

    def _wall_clock_allowed(self, rel: str) -> bool:
        return bool(self.wall_clock_allow) and rel.startswith(
            self.wall_clock_allow
        )

    def check_file(self, sf: SourceFile) -> List[Finding]:
        out: List[Finding] = []
        clock_ok = self._wall_clock_allowed(sf.rel)
        for node in ast.walk(sf.tree):
            if isinstance(node, ast.Attribute):
                if clock_ok:
                    continue
                base = node.value
                if (
                    isinstance(base, ast.Name)
                    and base.id == "time"
                    and node.attr in _WALL_CLOCK_TIME_ATTRS
                ):
                    out.append(
                        self.finding(
                            sf,
                            node,
                            f"wall-clock read `time.{node.attr}` in an "
                            f"ordering-sensitive module; behavior must "
                            f"be a function of (state, seed) only",
                        )
                    )
                elif node.attr in _WALL_CLOCK_DT_ATTRS and _attr_base(
                    base
                ) in ("datetime", "date"):
                    out.append(
                        self.finding(
                            sf,
                            node,
                            f"wall-clock read `.{node.attr}` on "
                            f"datetime/date; behavior must be a "
                            f"function of (state, seed) only",
                        )
                    )
            elif isinstance(node, ast.Call):
                is_sort_call = (
                    isinstance(node.func, ast.Name)
                    and node.func.id in _ORDERING_FUNCS
                ) or (
                    isinstance(node.func, ast.Attribute)
                    and node.func.attr == "sort"
                )
                if not is_sort_call:
                    continue
                for kw in node.keywords:
                    if kw.arg == "key" and _lambda_calls_id(kw.value):
                        out.append(
                            self.finding(
                                sf,
                                node,
                                "`id()` used as an ordering key: "
                                "allocation addresses differ between "
                                "runs; key on stable ids (ring_id, "
                                "order labels, run ids) instead",
                            )
                        )
        return out


# ----------------------------------------------------------------------
# D3 — unordered iteration feeding ordered sinks
# ----------------------------------------------------------------------
#: Consumers whose result does not depend on iteration order — a set
#: expression flowing into these is safe without sorted().
_ORDER_INSENSITIVE = frozenset(
    {"sorted", "min", "max", "sum", "len", "any", "all", "set", "frozenset"}
)
#: Builtins that freeze iteration order into an ordered container.
_ORDER_FREEZERS = frozenset({"list", "tuple", "enumerate"})
#: Project-specific calls known to return sets (beyond set()/frozenset()).
_SET_RETURNING_CALLS = frozenset(
    {"set", "frozenset", "boundary_cells", "runner_cells"}
)
#: Project-specific attributes known to hold sets (SwarmState.cells is
#: the canonical occupied-cell set of the whole engine).
_SET_ATTRS = frozenset({"cells"})
#: Typing spellings that mark a parameter/variable as a set.
_SET_ANNOTATIONS = frozenset(
    {"Set", "FrozenSet", "set", "frozenset", "AbstractSet", "MutableSet"}
)
#: Mutating sinks inside a for-over-set body that freeze order.
_ORDERED_SINK_ATTRS = frozenset({"append", "extend", "insert", "emit"})


def _annotation_is_set(node: Optional[ast.expr]) -> bool:
    if node is None:
        return False
    target = node
    if isinstance(target, ast.Subscript):
        target = target.value
    if isinstance(target, ast.Attribute):
        return target.attr in _SET_ANNOTATIONS
    return isinstance(target, ast.Name) and target.id in _SET_ANNOTATIONS


class _FunctionSetLocals(ast.NodeVisitor):
    """Names bound (exactly consistently) to set expressions in one
    function body — a one-pass, assignment-only dataflow."""

    def __init__(self, rule: "UnorderedIterationRule") -> None:
        self.rule = rule
        self.status: Dict[str, bool] = {}

    def note(self, name: str, is_set: bool) -> None:
        if name in self.status and self.status[name] != is_set:
            self.status[name] = False  # ambiguous: never treat as set
        else:
            self.status[name] = is_set

    def visit_Assign(self, node: ast.Assign) -> None:
        for tgt in node.targets:
            if isinstance(tgt, ast.Name):
                self.note(tgt.id, self.rule.is_set_expr(node.value, {}))
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if isinstance(node.target, ast.Name):
            self.note(
                node.target.id,
                _annotation_is_set(node.annotation)
                or (
                    node.value is not None
                    and self.rule.is_set_expr(node.value, {})
                ),
            )
        self.generic_visit(node)


class UnorderedIterationRule(FileRule):
    """D3: set / ``dict.keys`` iteration must not feed ordered sinks.

    Iterating a set (hash order) and freezing the result into a list,
    tuple, event emission, or yield sequence bakes hash-table layout
    into observable behavior.  CPython's int hashing keeps this stable
    *per build and insertion history*, which is exactly how such bugs
    pass goldens on CI and explode later (alternate interpreters, cell
    types with randomized hashes, differently-ordered insertions).  Wrap
    the iterable in ``sorted()`` or consume it order-insensitively.

    Detection is syntactic plus a one-pass local dataflow: set
    literals/comprehensions, ``set()``/``frozenset()`` calls,
    ``.keys()``, known set-returning project calls
    (``boundary_cells``, ``runner_cells``), the ``.cells`` attribute
    (SwarmState's occupied set), parameters annotated ``Set[...]``, and
    locals assigned from any of those.
    """

    rule_id = "D3"
    title = "unordered iteration feeding an ordered sink"

    def __init__(
        self, prefixes: Sequence[str] = ORDER_SENSITIVE_PREFIXES
    ) -> None:
        self.prefixes = tuple(prefixes)

    def applies(self, rel: str) -> bool:
        return rel.startswith(self.prefixes)

    # -- set-expression classifier -------------------------------------
    def is_set_expr(
        self, node: ast.expr, set_locals: Dict[str, bool]
    ) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Name):
            return set_locals.get(node.id, False)
        if isinstance(node, ast.Attribute):
            return node.attr in _SET_ATTRS
        if isinstance(node, ast.Call):
            func = node.func
            if (
                isinstance(func, ast.Name)
                and func.id in _SET_RETURNING_CALLS
            ):
                return True
            if isinstance(func, ast.Attribute) and (
                func.attr == "keys" or func.attr in _SET_RETURNING_CALLS
            ):
                return True
        if isinstance(node, ast.BinOp) and isinstance(
            node.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)
        ):
            # set algebra propagates set-ness through either operand
            return self.is_set_expr(
                node.left, set_locals
            ) or self.is_set_expr(node.right, set_locals)
        return False

    def _consumed_order_insensitively(
        self, sf: SourceFile, node: ast.AST
    ) -> bool:
        """True when an ancestor call sorts or order-insensitively
        consumes the value within the same statement."""
        for anc in sf.ancestors(node):
            if isinstance(anc, ast.Call):
                func = anc.func
                if (
                    isinstance(func, ast.Name)
                    and func.id in _ORDER_INSENSITIVE
                ):
                    return True
            if isinstance(anc, (ast.SetComp, ast.DictComp)):
                return True
            if isinstance(anc, ast.stmt):
                break
        return False

    # -- main pass -----------------------------------------------------
    def check_file(self, sf: SourceFile) -> List[Finding]:
        out: List[Finding] = []
        # set-typed locals per enclosing function scope
        scope_locals: Dict[int, Dict[str, bool]] = {}

        def locals_for(node: ast.AST) -> Dict[str, bool]:
            func = None
            for anc in sf.ancestors(node):
                if isinstance(
                    anc, (ast.FunctionDef, ast.AsyncFunctionDef)
                ):
                    func = anc
                    break
            if func is None:
                return {}
            cached = scope_locals.get(id(func))
            if cached is None:
                pass_ = _FunctionSetLocals(self)
                for stmt in func.body:
                    pass_.visit(stmt)
                cached = {
                    name: True
                    for name, ok in pass_.status.items()
                    if ok
                }
                for arg in (
                    list(func.args.posonlyargs)
                    + list(func.args.args)
                    + list(func.args.kwonlyargs)
                ):
                    if _annotation_is_set(arg.annotation):
                        cached[arg.arg] = True
                scope_locals[id(func)] = cached
            return cached

        def flag(node: ast.AST, msg: str) -> None:
            out.append(self.finding(sf, node, msg))

        for node in ast.walk(sf.tree):
            if isinstance(node, ast.Call):
                func = node.func
                freezer = (
                    isinstance(func, ast.Name)
                    and func.id in _ORDER_FREEZERS
                    and len(node.args) >= 1
                )
                joiner = (
                    isinstance(func, ast.Attribute)
                    and func.attr == "join"
                    and len(node.args) == 1
                )
                if not (freezer or joiner):
                    continue
                arg = node.args[0]
                env = locals_for(node)
                target = None
                if self.is_set_expr(arg, env):
                    target = arg
                elif isinstance(
                    arg, ast.GeneratorExp
                ) and self.is_set_expr(arg.generators[0].iter, env):
                    target = arg.generators[0].iter
                if target is None:
                    continue
                if self._consumed_order_insensitively(sf, node):
                    continue
                name = (
                    func.id
                    if isinstance(func, ast.Name)
                    else f".{func.attr}"
                )
                flag(
                    node,
                    f"`{name}(...)` freezes set/dict-key iteration "
                    f"order into an ordered value; wrap the iterable "
                    f"in `sorted(...)` (or consume it "
                    f"order-insensitively)",
                )
            elif isinstance(node, ast.ListComp):
                env = locals_for(node)
                if self.is_set_expr(
                    node.generators[0].iter, env
                ) and not self._consumed_order_insensitively(sf, node):
                    flag(
                        node,
                        "list comprehension over a set/dict-key "
                        "iterable freezes hash order; iterate "
                        "`sorted(...)` instead",
                    )
            elif isinstance(node, ast.For):
                env = locals_for(node)
                if not self.is_set_expr(node.iter, env):
                    continue
                sink = self._ordered_sink_in(node)
                if sink is not None:
                    flag(
                        node,
                        f"for-loop over a set/dict-key iterable feeds "
                        f"an ordered sink (`{sink}`); iterate "
                        f"`sorted(...)` instead",
                    )
        return out

    @staticmethod
    def _ordered_sink_in(loop: ast.For) -> Optional[str]:
        for stmt in loop.body:
            for sub in ast.walk(stmt):
                if isinstance(sub, (ast.Yield, ast.YieldFrom)):
                    return "yield"
                if (
                    isinstance(sub, ast.Call)
                    and isinstance(sub.func, ast.Attribute)
                    and sub.func.attr in _ORDERED_SINK_ATTRS
                ):
                    return f".{sub.func.attr}"
        return None
