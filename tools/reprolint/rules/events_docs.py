"""E1 — event schema: docs and code must agree exactly.

``RunResult.events`` is part of the public result surface (the trace
recorder serializes it, goldens hash it, the dashboard-to-be will
stream it), and ``docs/schedulers.md`` documents its schema.  Schema
docs rot silently: a renamed event kind breaks downstream consumers
with no test failing.  This rule cross-checks the set of event kinds
*actually emitted* by the engines against the event tables in
``docs/schedulers.md``:

* every kind emitted in code appears in a marked docs table;
* every kind documented there is emitted somewhere in code;
* every ``.emit(...)`` call's kind argument is statically resolvable
  (a string literal, a literal conditional, or a local name assigned
  only literals) — otherwise the schema cannot be machine-checked;
* a terminal kind — one of the literal ``TERMINAL_KINDS`` tuple of
  ``src/repro/engine/termination.py``, read from that module's AST —
  is emitted nowhere else in the linted tree: the one run loop there
  emits the single terminal event of every run.  A tree without that
  module (a fixture tree) skips this check.

The docs side reads markdown tables delimited by::

    <!-- reprolint: event-table -->
    | kind | ... |
    |------|-----|
    | `merge` | ... |
    <!-- /reprolint: event-table -->

(multiple marked tables are unioned).
"""

from __future__ import annotations

import ast
import re
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from tools.reprolint.engine import Finding, ProjectRule, SourceFile

_BEGIN = re.compile(r"<!--\s*reprolint:\s*event-table\s*-->")
_END = re.compile(r"<!--\s*/reprolint:\s*event-table\s*-->")
_ROW_KIND = re.compile(r"^\|\s*`([^`]+)`\s*\|")
#: The module whose literal ``TERMINAL_KINDS`` tuple names the terminal
#: kinds, and the only module allowed to emit them.
TERMINAL_MODULE = "src/repro/engine/termination.py"


def documented_kinds(text: str) -> Dict[str, int]:
    """``kind -> line`` for rows of the marked tables in a doc."""
    out: Dict[str, int] = {}
    inside = False
    for i, line in enumerate(text.splitlines(), start=1):
        if _BEGIN.search(line):
            inside = True
            continue
        if _END.search(line):
            inside = False
            continue
        if not inside:
            continue
        m = _ROW_KIND.match(line.strip())
        if m is not None:
            out.setdefault(m.group(1), i)
    return out


class EventDocsCrossCheckRule(ProjectRule):
    """E1: emitted event kinds == documented event kinds."""

    rule_id = "E1"
    title = "event-kind drift between engines and docs"

    def __init__(
        self,
        code_prefixes: Sequence[str] = (
            "src/repro/engine/",
            "src/repro/core/",
            "src/repro/api.py",
        ),
        doc_path: str = "docs/schedulers.md",
    ) -> None:
        self.code_prefixes = tuple(code_prefixes)
        self.doc_path = doc_path

    # -- code side -----------------------------------------------------
    def _resolve_kind(
        self, expr: ast.expr, sf: SourceFile
    ) -> Optional[Set[str]]:
        """The set of string values ``expr`` can take, or None."""
        if isinstance(expr, ast.Constant) and isinstance(expr.value, str):
            return {expr.value}
        if isinstance(expr, ast.IfExp):
            body = self._resolve_kind(expr.body, sf)
            orelse = self._resolve_kind(expr.orelse, sf)
            if body is not None and orelse is not None:
                return body | orelse
            return None
        if isinstance(expr, ast.Name):
            func = None
            for anc in sf.ancestors(expr):
                if isinstance(
                    anc, (ast.FunctionDef, ast.AsyncFunctionDef)
                ):
                    func = anc
                    break
            if func is None:
                return None
            values: Set[str] = set()
            for sub in ast.walk(func):
                if not isinstance(sub, ast.Assign):
                    continue
                if not any(
                    isinstance(t, ast.Name) and t.id == expr.id
                    for t in sub.targets
                ):
                    continue
                resolved = self._resolve_kind(sub.value, sf)
                if resolved is None:
                    return None
                values |= resolved
            return values or None
        return None

    def _emit_calls(
        self, sf: SourceFile
    ) -> Iterator[Tuple[ast.Call, Optional[Set[str]]]]:
        """Every ``.emit(round, kind, ...)`` call and its kinds."""
        for node in ast.walk(sf.tree):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "emit"
                and len(node.args) >= 2
            ):
                yield node, self._resolve_kind(node.args[1], sf)

    def _emitted_kinds(
        self, files: Sequence[SourceFile]
    ) -> Tuple[Dict[str, Tuple[str, int]], List[Finding]]:
        kinds: Dict[str, Tuple[str, int]] = {}
        problems: List[Finding] = []
        for sf in files:
            if not sf.rel.startswith(self.code_prefixes):
                continue
            for node, resolved in self._emit_calls(sf):
                if resolved is None:
                    problems.append(
                        Finding(
                            self.rule_id,
                            sf.rel,
                            node.lineno,
                            "event kind is not statically resolvable "
                            "(use a string literal, a literal "
                            "conditional, or a local assigned only "
                            "literals) — the event schema must be "
                            "machine-checkable against "
                            f"{self.doc_path}",
                        )
                    )
                    continue
                for kind in resolved:
                    kinds.setdefault(kind, (sf.rel, node.lineno))
        return kinds, problems

    # -- terminal kinds ------------------------------------------------
    def terminal_kinds(
        self, files: Sequence[SourceFile], repo_root: Path
    ) -> Tuple[Optional[Set[str]], List[Finding]]:
        """The terminal module's literal ``TERMINAL_KINDS``, read from
        the linted file set or else from disk; ``None`` when the tree
        has no terminal module."""
        tree = next(
            (sf.tree for sf in files if sf.rel == TERMINAL_MODULE),
            None,
        )
        path = repo_root / TERMINAL_MODULE
        if tree is None and path.exists():
            tree = ast.parse(path.read_text())
        if tree is None:
            return None, []
        for node in tree.body:
            if not isinstance(node, ast.Assign) or not any(
                isinstance(t, ast.Name) and t.id == "TERMINAL_KINDS"
                for t in node.targets
            ):
                continue
            value = node.value
            if isinstance(value, ast.Tuple) and all(
                isinstance(e, ast.Constant) and isinstance(e.value, str)
                for e in value.elts
            ):
                return {e.value for e in value.elts}, []
            break
        return None, [
            Finding(
                self.rule_id,
                TERMINAL_MODULE,
                1,
                "no literal `TERMINAL_KINDS = (...)` tuple of strings; "
                "the terminal-emit check cannot run",
            )
        ]

    def _stray_terminals(
        self, files: Sequence[SourceFile], terminal: Set[str]
    ) -> List[Finding]:
        out: List[Finding] = []
        for sf in files:
            if sf.rel == TERMINAL_MODULE:
                continue
            for node, resolved in self._emit_calls(sf):
                stray = sorted((resolved or set()) & terminal)
                if stray:
                    kinds = ", ".join(f"`{k}`" for k in stray)
                    plural = "s" if len(stray) > 1 else ""
                    out.append(
                        Finding(
                            self.rule_id,
                            sf.rel,
                            node.lineno,
                            f"terminal event kind{plural} {kinds} "
                            f"emitted outside {TERMINAL_MODULE}; "
                            f"the run loop there emits a run's one "
                            f"terminal event",
                        )
                    )
        return out

    # -- cross-check ---------------------------------------------------
    def check_project(
        self, files: Sequence[SourceFile], repo_root: Path
    ) -> List[Finding]:
        emitted, out = self._emitted_kinds(files)
        terminal, problems = self.terminal_kinds(files, repo_root)
        out.extend(problems)
        if terminal is not None:
            out.extend(self._stray_terminals(files, terminal))
        doc_file = repo_root / self.doc_path
        if not doc_file.exists():
            out.append(
                Finding(
                    self.rule_id,
                    self.doc_path,
                    1,
                    "event-schema doc not found; the emitted kinds "
                    f"({', '.join(sorted(emitted))}) are undocumented",
                )
            )
            return out
        documented = documented_kinds(doc_file.read_text())
        if not documented:
            out.append(
                Finding(
                    self.rule_id,
                    self.doc_path,
                    1,
                    "no `<!-- reprolint: event-table -->` marked table "
                    "found; the event schema must be machine-checkable",
                )
            )
            return out
        for kind in sorted(set(emitted) - set(documented)):
            rel, line = emitted[kind]
            out.append(
                Finding(
                    self.rule_id,
                    rel,
                    line,
                    f"event kind `{kind}` is emitted here but missing "
                    f"from the event tables in {self.doc_path}",
                )
            )
        for kind in sorted(set(documented) - set(emitted)):
            out.append(
                Finding(
                    self.rule_id,
                    self.doc_path,
                    documented[kind],
                    f"event kind `{kind}` is documented but no longer "
                    f"emitted by any engine module",
                )
            )
        return out
