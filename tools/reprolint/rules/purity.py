"""P1 — purity of the run planner's per-run compute.

``RunManager.plan`` plans every run with ``_plan_one`` against the
round's read-only context, then reduces the results in run-id order.
That reduce is the *only* place runs couple, which holds only if
``_plan_one`` is a pure function of the context: a write there would
let one run's plan depend on which runs were planned before it.  The
explorer leans on the same purity — it plans once, then snapshots and
restores the run manager around every activation-subset branch, which
is sound only if planning leaves no hidden state behind.  The
equivalence suite checks this dynamically on the scenarios it runs;
this rule proves the write-freedom statically for *every* code path:
``_plan_one`` and everything it transitively calls within ``core/``
must not

* write to ``self`` (attribute/subscript stores, mutating method calls),
* declare ``global``/``nonlocal`` names,
* write to module-level names, or
* mutate its parameters (the shared round context is passed in).

Locally created objects may be mutated freely — purity here means "no
writes observable outside the call".  Calls that cannot be resolved
statically (methods on non-``self`` objects, builtins) are skipped;
the dynamic equivalence suite remains the backstop for those.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Set, Tuple

from tools.reprolint.engine import Finding, ProjectRule, SourceFile

#: Method names that mutate their receiver in the stdlib containers.
_MUTATORS = frozenset(
    {
        "append",
        "appendleft",
        "add",
        "update",
        "pop",
        "popleft",
        "popitem",
        "remove",
        "discard",
        "clear",
        "extend",
        "insert",
        "setdefault",
        "sort",
        "reverse",
        "difference_update",
        "intersection_update",
        "symmetric_difference_update",
        "write",
    }
)


def _root_name(node: ast.AST) -> Optional[str]:
    while isinstance(node, (ast.Attribute, ast.Subscript, ast.Starred)):
        node = node.value
    if isinstance(node, ast.Name):
        return node.id
    return None


class _FuncInfo:
    """Index entry: one function/method definition."""

    def __init__(
        self,
        sf: SourceFile,
        node: ast.FunctionDef,
        class_name: Optional[str],
    ) -> None:
        self.sf = sf
        self.node = node
        self.class_name = class_name

    @property
    def qualname(self) -> str:
        if self.class_name:
            return f"{self.class_name}.{self.node.name}"
        return self.node.name


class SharedStatePurityRule(ProjectRule):
    """P1: the per-run planner's call graph must be write-free."""

    rule_id = "P1"
    title = "shared-state write inside the per-run planner"

    def __init__(
        self,
        entries: Sequence[Tuple[str, str]] = (
            ("src/repro/core/runs.py", "RunManager._plan_one"),
            # The explorer's state-key construction: a canonical key
            # must be a pure function of the checkpoint it summarizes —
            # a write here would let one branch leak into its siblings.
            ("src/repro/explore/canonical.py", "canonical_state_key"),
            # The tolerant variant's admission filter: the subset-safety
            # certificate must be a pure function of (occupied, planned)
            # — a write here would make safety depend on evaluation
            # order, voiding the stationary-core argument.
            ("src/repro/core/tolerant.py", "certified_subset"),
        ),
        follow_prefixes: Sequence[str] = (
            "src/repro/core/",
            "src/repro/explore/",
            "src/repro/grid/canonical.py",
        ),
    ) -> None:
        self.entries = tuple(entries)
        self.follow_prefixes = tuple(follow_prefixes)

    # -- indexing ------------------------------------------------------
    def _index(
        self, files: Sequence[SourceFile]
    ) -> Tuple[Dict[str, Dict[str, _FuncInfo]], Dict[str, Dict[str, str]]]:
        """Per followed file: qualname -> function, and the import map
        ``local name -> "<rel>:<name>"`` for first-party core imports."""
        funcs: Dict[str, Dict[str, _FuncInfo]] = {}
        imports: Dict[str, Dict[str, str]] = {}
        by_module: Dict[str, str] = {}  # dotted module -> rel path
        for sf in files:
            if not sf.rel.startswith(self.follow_prefixes):
                continue
            if sf.rel.startswith("src/") and sf.rel.endswith(".py"):
                dotted = sf.rel[len("src/") : -len(".py")].replace(
                    "/", "."
                )
                by_module[dotted] = sf.rel
        for sf in files:
            if not sf.rel.startswith(self.follow_prefixes):
                continue
            table: Dict[str, _FuncInfo] = {}
            imap: Dict[str, str] = {}
            for stmt in sf.tree.body:
                if isinstance(stmt, ast.FunctionDef):
                    table[stmt.name] = _FuncInfo(sf, stmt, None)
                elif isinstance(stmt, ast.ClassDef):
                    for sub in stmt.body:
                        if isinstance(sub, ast.FunctionDef):
                            table[f"{stmt.name}.{sub.name}"] = _FuncInfo(
                                sf, sub, stmt.name
                            )
                elif isinstance(stmt, ast.ImportFrom) and stmt.module:
                    target_rel = by_module.get(stmt.module)
                    if target_rel is None:
                        continue
                    for alias in stmt.names:
                        imap[alias.asname or alias.name] = (
                            f"{target_rel}:{alias.name}"
                        )
            funcs[sf.rel] = table
            imports[sf.rel] = imap
        return funcs, imports

    # -- analysis ------------------------------------------------------
    def check_project(
        self, files: Sequence[SourceFile], repo_root: Path
    ) -> List[Finding]:
        funcs, imports = self._index(files)
        out: List[Finding] = []
        for entry_rel, entry_qual in self.entries:
            table = funcs.get(entry_rel, {})
            info = table.get(entry_qual)
            if info is None:
                out.append(
                    Finding(
                        self.rule_id,
                        entry_rel,
                        1,
                        f"purity entry point {entry_qual!r} not found "
                        f"(rule configuration is stale)",
                    )
                )
                continue
            visited: Set[Tuple[str, str]] = set()
            self._analyze(
                info, f"{entry_qual}", funcs, imports, visited, out
            )
        return out

    def _analyze(
        self,
        info: _FuncInfo,
        chain: str,
        funcs: Dict[str, Dict[str, _FuncInfo]],
        imports: Dict[str, Dict[str, str]],
        visited: Set[Tuple[str, str]],
        out: List[Finding],
    ) -> None:
        key = (info.sf.rel, info.qualname)
        if key in visited:
            return
        visited.add(key)
        node = info.node
        args = node.args
        params = {
            a.arg
            for a in (
                list(args.posonlyargs)
                + list(args.args)
                + list(args.kwonlyargs)
            )
        }
        if args.vararg:
            params.add(args.vararg.arg)
        if args.kwarg:
            params.add(args.kwarg.arg)
        local_names = {
            sub.id
            for sub in ast.walk(node)
            if isinstance(sub, ast.Name)
            and isinstance(sub.ctx, (ast.Store, ast.Del))
        }

        def classify(base: Optional[str]) -> Optional[str]:
            """Why writing through ``base`` is a violation (or None)."""
            if base is None:
                return None
            if base == "self":
                return "self"
            if base in params:
                return f"parameter `{base}` (shared round context)"
            if base in local_names:
                return None
            return f"module-level name `{base}`"

        def report(sub: ast.AST, what: str) -> None:
            out.append(
                Finding(
                    self.rule_id,
                    info.sf.rel,
                    getattr(sub, "lineno", node.lineno),
                    f"{info.qualname} (reached via {chain}) {what} — "
                    f"breaks planning's order independence",
                )
            )

        callees: List[Tuple[_FuncInfo, str]] = []
        for sub in ast.walk(node):
            if isinstance(sub, (ast.Global, ast.Nonlocal)):
                report(
                    sub,
                    "declares `global`/`nonlocal` state",
                )
            elif isinstance(sub, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
                targets = (
                    sub.targets
                    if isinstance(sub, ast.Assign)
                    else [sub.target]
                )
                for tgt in targets:
                    elts = (
                        tgt.elts
                        if isinstance(tgt, (ast.Tuple, ast.List))
                        else [tgt]
                    )
                    for t in elts:
                        if isinstance(t, ast.Name):
                            continue  # plain local rebind
                        why = classify(_root_name(t))
                        if why is not None:
                            report(sub, f"writes to {why}")
            elif isinstance(sub, ast.Delete):
                for tgt in sub.targets:
                    if isinstance(tgt, ast.Name):
                        continue
                    why = classify(_root_name(tgt))
                    if why is not None:
                        report(sub, f"deletes from {why}")
            elif isinstance(sub, ast.Call):
                func = sub.func
                if (
                    isinstance(func, ast.Attribute)
                    and func.attr in _MUTATORS
                ):
                    why = classify(_root_name(func.value))
                    if why is not None:
                        report(
                            sub,
                            f"calls mutating `.{func.attr}()` on {why}",
                        )
                callee = self._resolve(sub, info, funcs, imports)
                if callee is not None:
                    callees.append(callee)
        for callee_info, label in callees:
            self._analyze(
                callee_info,
                f"{chain} -> {label}",
                funcs,
                imports,
                visited,
                out,
            )

    def _resolve(
        self,
        call: ast.Call,
        caller: _FuncInfo,
        funcs: Dict[str, Dict[str, _FuncInfo]],
        imports: Dict[str, Dict[str, str]],
    ) -> Optional[Tuple[_FuncInfo, str]]:
        func = call.func
        table = funcs.get(caller.sf.rel, {})
        if isinstance(func, ast.Name):
            hit = table.get(func.id)
            if hit is not None:
                return hit, func.id
            origin = imports.get(caller.sf.rel, {}).get(func.id)
            if origin is not None:
                rel, name = origin.rsplit(":", 1)
                hit = funcs.get(rel, {}).get(name)
                if hit is not None:
                    return hit, func.id
        elif (
            isinstance(func, ast.Attribute)
            and isinstance(func.value, ast.Name)
            and func.value.id in ("self", "cls")
            and caller.class_name is not None
        ):
            hit = table.get(f"{caller.class_name}.{func.attr}")
            if hit is not None:
                return hit, f"self.{func.attr}"
        return None
