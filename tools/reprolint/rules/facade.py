"""F1 — facade discipline.

``repro.api.simulate`` is the one simulation entry point; only
``gather``, the quickstart spelling of ``simulate()``, survives of the
per-workload entry points.  Two checks keep the facade honest:

* no imports of ``gather`` outside the shim surface (the package
  re-export ``__init__``s) — new code must go through ``simulate()``;
* every ``@register_scheduler`` class declares ``option_names`` (the
  facade validates leftover keyword options against it; a scheduler
  without the declaration silently swallows typos).
"""

from __future__ import annotations

import ast
from typing import List, Sequence

from tools.reprolint.engine import FileRule, Finding, SourceFile

#: The per-workload entry points superseded by ``repro.api.simulate``.
LEGACY_ENTRY_POINTS = frozenset({"gather"})

#: The shim surface: files allowed to import/re-export legacy entries.
_DEFAULT_SHIM_FILES = (
    "src/repro/__init__.py",
    "src/repro/core/__init__.py",
)


class LegacyEntryPointRule(FileRule):
    """F1: legacy entry points stay behind the facade."""

    rule_id = "F1"
    title = "legacy entry-point import outside the shim surface"

    def __init__(
        self,
        shim_files: Sequence[str] = _DEFAULT_SHIM_FILES,
        legacy: frozenset = LEGACY_ENTRY_POINTS,
    ) -> None:
        self.shim_files = tuple(shim_files)
        self.legacy = legacy

    def applies(self, rel: str) -> bool:
        return rel not in self.shim_files

    def check_file(self, sf: SourceFile) -> List[Finding]:
        out: List[Finding] = []
        for node in ast.walk(sf.tree):
            if not isinstance(node, ast.ImportFrom):
                continue
            module = node.module or ""
            if not (module == "repro" or module.startswith("repro.")):
                continue
            for alias in node.names:
                if alias.name in self.legacy:
                    out.append(
                        self.finding(
                            sf,
                            node,
                            f"imports legacy entry point "
                            f"`{alias.name}` from `{module}`; use "
                            f"`repro.api.simulate(scenario, "
                            f"strategy=..., scheduler=...)` instead",
                        )
                    )
        return out


class SchedulerOptionNamesRule(FileRule):
    """F1: registered schedulers must declare ``option_names``.

    ``simulate()`` validates unconsumed keyword options against the
    scheduler's ``option_names``; a registered scheduler without the
    declaration (directly or via a base class in the same module) turns
    every user typo into a silent no-op.
    """

    rule_id = "F1"
    title = "@register_scheduler class without option_names"

    def __init__(self, prefixes: Sequence[str] = ("src/",)) -> None:
        self.prefixes = tuple(prefixes)

    def applies(self, rel: str) -> bool:
        return rel.startswith(self.prefixes)

    def check_file(self, sf: SourceFile) -> List[Finding]:
        classes = {
            node.name: node
            for node in ast.walk(sf.tree)
            if isinstance(node, ast.ClassDef)
        }

        def declares(cls: ast.ClassDef, seen: set) -> bool:
            if cls.name in seen:
                return False
            seen.add(cls.name)
            for stmt in cls.body:
                if isinstance(stmt, ast.Assign) and any(
                    isinstance(t, ast.Name) and t.id == "option_names"
                    for t in stmt.targets
                ):
                    return True
                if (
                    isinstance(stmt, ast.AnnAssign)
                    and isinstance(stmt.target, ast.Name)
                    and stmt.target.id == "option_names"
                ):
                    return True
            for base in cls.bases:
                if isinstance(base, ast.Name) and base.id in classes:
                    if declares(classes[base.id], seen):
                        return True
            return False

        out: List[Finding] = []
        for cls in classes.values():
            registered = any(
                (isinstance(dec, ast.Name) and dec.id == "register_scheduler")
                or (
                    isinstance(dec, ast.Attribute)
                    and dec.attr == "register_scheduler"
                )
                for dec in cls.decorator_list
            )
            if registered and not declares(cls, set()):
                out.append(
                    self.finding(
                        sf,
                        cls,
                        f"scheduler class `{cls.name}` is registered "
                        f"but declares no `option_names`; the facade "
                        f"cannot validate its options (declare `()` if "
                        f"it takes none)",
                    )
                )
        return out
