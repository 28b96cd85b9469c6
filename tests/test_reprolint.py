"""reprolint: fixture-backed rule tests + the live-tree meta-test.

Each rule family gets three kinds of fixtures: code that must fire,
code that must stay quiet, and a suppressed occurrence that must be
honored (with its reason) — so a rule regression shows up as a failing
fixture, not as silent CI noise.  The meta-test at the bottom runs the
default configuration over the real tree: introducing, say, a
``random.random()`` call in ``src/repro`` or a ``self.`` write in
``_plan_one``'s call graph fails tier-1, not just the CI lint job.
"""

from __future__ import annotations

import subprocess
import sys
import textwrap
from pathlib import Path
from typing import List, Optional

from tools.reprolint.engine import (
    Finding,
    Runner,
    SourceFile,
    collect_files,
)
from tools.reprolint.rules import default_rules
from tools.reprolint.rules.asserts import BareAssertRule
from tools.reprolint.rules.determinism import (
    ORDER_SENSITIVE_PREFIXES,
    WALL_CLOCK_ALLOWED_PREFIXES,
    IdOrderingWallClockRule,
    UnorderedIterationRule,
    UnseededRandomRule,
)
from tools.reprolint.rules.events_docs import (
    EventDocsCrossCheckRule,
    documented_kinds,
)
from tools.reprolint.rules.facade import (
    LegacyEntryPointRule,
    SchedulerOptionNamesRule,
)
from tools.reprolint.rules.purity import SharedStatePurityRule

REPO = Path(__file__).resolve().parent.parent


def sf(rel: str, code: str) -> SourceFile:
    """A SourceFile fixture from a snippet (no file on disk needed)."""
    return SourceFile(REPO / rel, rel, textwrap.dedent(code))


def run_file_rule(rule, rel: str, code: str) -> List[Finding]:
    source = sf(rel, code)
    assert rule.applies(rel), f"{rule.rule_id} should apply to {rel}"
    return rule.check_file(source)


# ----------------------------------------------------------------------
# D1 — seeded RNG only
# ----------------------------------------------------------------------
class TestD1UnseededRandom:
    def test_fires_on_module_random(self):
        findings = run_file_rule(
            UnseededRandomRule(),
            "src/repro/core/example.py",
            """
            import random

            def jitter():
                return random.random()
            """,
        )
        assert len(findings) == 1
        assert findings[0].rule == "D1"
        assert "random.random" in findings[0].message

    def test_fires_on_from_import(self):
        findings = run_file_rule(
            UnseededRandomRule(),
            "src/repro/core/example.py",
            "from random import shuffle\n",
        )
        assert len(findings) == 1

    def test_fires_on_numpy_random(self):
        findings = run_file_rule(
            UnseededRandomRule(),
            "src/repro/core/example.py",
            """
            import numpy as np

            def noise():
                return np.random.rand()
            """,
        )
        assert len(findings) == 1

    def test_fires_on_module_level_rng_instance(self):
        findings = run_file_rule(
            UnseededRandomRule(),
            "src/repro/core/example.py",
            """
            import random

            _RNG = random.Random(0)
            """,
        )
        assert len(findings) == 1
        assert "module" in findings[0].message.lower()

    def test_quiet_on_threaded_rng(self):
        findings = run_file_rule(
            UnseededRandomRule(),
            "src/repro/core/example.py",
            """
            import random

            def plan(seed):
                rng = random.Random(seed)
                return rng.randrange(4)
            """,
        )
        assert findings == []

    def test_out_of_scope_path_ignored(self):
        assert not UnseededRandomRule().applies("tools/whatever.py")


# ----------------------------------------------------------------------
# D2 — wall clock / id() ordering
# ----------------------------------------------------------------------
class TestD2WallClockIdOrder:
    def test_fires_on_time_time(self):
        findings = run_file_rule(
            IdOrderingWallClockRule(),
            "src/repro/engine/example.py",
            """
            import time

            def stamp():
                return time.time()
            """,
        )
        assert len(findings) == 1
        assert findings[0].rule == "D2"

    def test_fires_on_datetime_now(self):
        findings = run_file_rule(
            IdOrderingWallClockRule(),
            "src/repro/core/example.py",
            """
            from datetime import datetime

            def stamp():
                return datetime.now()
            """,
        )
        assert len(findings) == 1

    def test_fires_on_id_sort_key(self):
        findings = run_file_rule(
            IdOrderingWallClockRule(),
            "src/repro/core/example.py",
            "def order(xs):\n    return sorted(xs, key=id)\n",
        )
        assert len(findings) == 1
        assert "id(" in findings[0].message or "id" in findings[0].message

    def test_quiet_on_id_dict_key(self):
        findings = run_file_rule(
            IdOrderingWallClockRule(),
            "src/repro/core/example.py",
            """
            def group(xs):
                seen = {}
                for x in xs:
                    seen[id(x)] = x
                return seen
            """,
        )
        assert findings == []


class TestD2ServiceWallClockAllowlist:
    """The per-path allowlist for the serving layer's timestamps.

    The production D2 instance widens to ``src/repro/service/`` but
    exempts exactly that layer's wall-clock reads; these tests pin
    both halves of the boundary so a careless config edit (dropping
    core/ from the prefixes, or allowlisting a simulation layer)
    fails tier-1.
    """

    @staticmethod
    def production_rule() -> IdOrderingWallClockRule:
        for rule in default_rules():
            if isinstance(rule, IdOrderingWallClockRule):
                return rule
        raise AssertionError("D2 missing from default_rules()")

    def test_service_wall_clock_is_allowed(self):
        findings = run_file_rule(
            self.production_rule(),
            "src/repro/service/example.py",
            """
            import time

            def stamp():
                return time.time()
            """,
        )
        assert findings == []

    def test_service_id_ordering_still_fires(self):
        findings = run_file_rule(
            self.production_rule(),
            "src/repro/service/example.py",
            "def order(xs):\n    return sorted(xs, key=id)\n",
        )
        assert len(findings) == 1
        assert findings[0].rule == "D2"

    def test_core_engine_grid_remain_fully_covered(self):
        rule = self.production_rule()
        clock = """
            import time

            def stamp():
                return time.time()
            """
        for prefix in (
            "src/repro/core/",
            "src/repro/engine/",
            "src/repro/grid/",
        ):
            findings = run_file_rule(rule, prefix + "example.py", clock)
            assert len(findings) == 1, prefix
            assert findings[0].rule == "D2"

    def test_allowlist_is_exactly_the_service_layer(self):
        rule = self.production_rule()
        assert rule.wall_clock_allow == ("src/repro/service/",)
        assert rule.wall_clock_allow == WALL_CLOCK_ALLOWED_PREFIXES
        for prefix in ORDER_SENSITIVE_PREFIXES:
            assert prefix in rule.prefixes
        assert not any(
            prefix.startswith(rule.wall_clock_allow)
            for prefix in ORDER_SENSITIVE_PREFIXES
        )


# ----------------------------------------------------------------------
# D3 — unordered iteration into ordered sinks
# ----------------------------------------------------------------------
class TestD3UnorderedIteration:
    def test_fires_on_list_of_set(self):
        findings = run_file_rule(
            UnorderedIterationRule(),
            "src/repro/engine/example.py",
            """
            def freeze(cells: set):
                return list(cells)
            """,
        )
        assert len(findings) == 1
        assert findings[0].rule == "D3"

    def test_fires_on_loop_append_over_dict_keys(self):
        findings = run_file_rule(
            UnorderedIterationRule(),
            "src/repro/core/example.py",
            """
            def collect(table):
                out = []
                for k in table.keys():
                    out.append(k)
                return out
            """,
        )
        assert len(findings) == 1

    def test_quiet_when_sorted(self):
        findings = run_file_rule(
            UnorderedIterationRule(),
            "src/repro/core/example.py",
            """
            def freeze(cells: set):
                return sorted(cells)

            def order_insensitive(cells: set):
                return len(cells), sum(x for x, _ in cells)
            """,
        )
        assert findings == []

    def test_suppression_is_honored(self):
        code = (
            "def freeze(cells: set):\n"
            "    # reprolint: ok[D3] consumed order-insensitively\n"
            "    return list(cells)\n"
        )
        report = _run_snippet("src/repro/engine/example.py", code)
        assert report.active == []
        assert len(report.suppressed) == 1
        assert report.suppressed[0].reason == "consumed order-insensitively"

    def test_suppression_without_reason_is_a_finding(self):
        code = (
            "def freeze(cells: set):\n"
            "    return list(cells)  # reprolint: ok[D3]\n"
        )
        report = _run_snippet("src/repro/engine/example.py", code)
        assert any("reason" in f.message for f in report.active)

    def test_fires_on_unsorted_trace_delta(self):
        # Trace delta rows are set differences whose bytes resume and
        # the benchmark compare exactly.
        code = """
            def delta(self, state):
                cells = state.cells
                return list(self._prev - cells)
            """
        rule = UnorderedIterationRule()
        findings = run_file_rule(rule, "src/repro/trace/example.py", code)
        assert [f.rule for f in findings] == ["D3"]
        sorted_code = code.replace("list(", "sorted(")
        assert (
            run_file_rule(rule, "src/repro/trace/example.py", sorted_code)
            == []
        )


# ----------------------------------------------------------------------
# P1 — purity of the per-run planner
# ----------------------------------------------------------------------
PURE_PLANNER = """
def helper(ctx):
    acc = []
    acc.append(ctx[0])
    return acc


class RunManager:
    def _fold_target(self, rid):
        return helper((rid,))

    def _plan_one(self, rid, occupied):
        local = {}
        local[rid] = self._fold_target(rid)
        return local
"""

IMPURE_SELF_WRITE = """
class RunManager:
    def _plan_one(self, rid, occupied):
        self.cache = rid
        return rid
"""

IMPURE_TRANSITIVE = """
class RunManager:
    def _bump(self, occupied):
        occupied.add((0, 0))

    def _plan_one(self, rid, occupied):
        self._bump(occupied)
        return rid
"""


def _purity_findings(code: str) -> List[Finding]:
    rule = SharedStatePurityRule(
        entries=(("src/repro/core/fixture.py", "RunManager._plan_one"),),
        follow_prefixes=("src/repro/core/",),
    )
    return rule.check_project(
        [sf("src/repro/core/fixture.py", code)], REPO
    )


class TestP1Purity:
    def test_quiet_on_pure_planner(self):
        assert _purity_findings(PURE_PLANNER) == []

    def test_fires_on_self_write(self):
        findings = _purity_findings(IMPURE_SELF_WRITE)
        assert len(findings) == 1
        assert "self" in findings[0].message

    def test_fires_transitively_with_chain(self):
        findings = _purity_findings(IMPURE_TRANSITIVE)
        assert len(findings) == 1
        assert "_plan_one -> self._bump" in findings[0].message
        assert "parameter `occupied`" in findings[0].message

    def test_stale_entry_point_is_reported(self):
        findings = _purity_findings("X = 1\n")
        assert len(findings) == 1
        assert "not found" in findings[0].message


# ----------------------------------------------------------------------
# F1 — facade discipline
# ----------------------------------------------------------------------
class TestF1Facade:
    def test_fires_on_legacy_import(self):
        findings = run_file_rule(
            LegacyEntryPointRule(),
            "src/repro/viz/example.py",
            "from repro.core.algorithm import gather\n",
        )
        assert len(findings) == 1
        assert findings[0].rule == "F1"
        assert "simulate" in findings[0].message

    def test_quiet_inside_shim_surface(self):
        rule = LegacyEntryPointRule()
        assert not rule.applies("src/repro/__init__.py")
        assert not rule.applies("src/repro/core/__init__.py")
        # baselines/ defines no entry point, so it is checked like the
        # rest of the tree
        assert rule.applies("src/repro/baselines/chain.py")

    def test_quiet_on_facade_import(self):
        findings = run_file_rule(
            LegacyEntryPointRule(),
            "src/repro/viz/example.py",
            "from repro.api import simulate\n",
        )
        assert findings == []

    def test_fires_on_scheduler_without_option_names(self):
        findings = run_file_rule(
            SchedulerOptionNamesRule(),
            "src/repro/example.py",
            """
            @register_scheduler
            class BadScheduler:
                key = "bad"
            """,
        )
        assert len(findings) == 1
        assert "option_names" in findings[0].message

    def test_quiet_when_base_class_declares(self):
        findings = run_file_rule(
            SchedulerOptionNamesRule(),
            "src/repro/example.py",
            """
            class Base:
                option_names = ("a",)

            @register_scheduler
            class GoodScheduler(Base):
                key = "good"
            """,
        )
        assert findings == []


# ----------------------------------------------------------------------
# E1 — event docs cross-check
# ----------------------------------------------------------------------
EMITTING_ENGINE = """
class Engine:
    def run(self, done):
        self.events.emit(0, "merge", removed=1)
        self.events.emit(1, "gathered" if done else "budget_exhausted")
"""


def _e1(doc_text: Optional[str], code: str, tmp_path) -> List[Finding]:
    doc_rel = "docs/fixture_events.md"
    if doc_text is not None:
        (tmp_path / "docs").mkdir(exist_ok=True)
        (tmp_path / doc_rel).write_text(textwrap.dedent(doc_text))
    rule = EventDocsCrossCheckRule(
        code_prefixes=("src/repro/engine/",), doc_path=doc_rel
    )
    return rule.check_project(
        [sf("src/repro/engine/fixture.py", code)], tmp_path
    )


GOOD_DOC = """
<!-- reprolint: event-table -->
| kind | data |
|------|------|
| `merge` | `removed` |
| `gathered` | — |
| `budget_exhausted` | — |
<!-- /reprolint: event-table -->
"""


class TestE1EventDocs:
    def test_quiet_when_in_sync(self, tmp_path):
        assert _e1(GOOD_DOC, EMITTING_ENGINE, tmp_path) == []

    def test_fires_on_undocumented_kind(self, tmp_path):
        doc = GOOD_DOC.replace("| `merge` | `removed` |\n", "")
        findings = _e1(doc, EMITTING_ENGINE, tmp_path)
        assert len(findings) == 1
        assert "`merge`" in findings[0].message
        assert findings[0].path == "src/repro/engine/fixture.py"

    def test_fires_on_stale_doc_row(self, tmp_path):
        doc = GOOD_DOC.replace(
            "| `merge` |", "| `merge` |\n| `vanished` |"
        )
        findings = _e1(doc, EMITTING_ENGINE, tmp_path)
        assert len(findings) == 1
        assert "`vanished`" in findings[0].message
        assert findings[0].path == "docs/fixture_events.md"

    def test_fires_on_unresolvable_kind(self, tmp_path):
        code = """
        class Engine:
            def run(self, kind):
                self.events.emit(0, kind)
        """
        findings = _e1(GOOD_DOC, textwrap.dedent(code), tmp_path)
        assert len(findings) >= 1
        assert "statically resolvable" in findings[0].message

    def test_resolves_local_literal_assignments(self, tmp_path):
        code = """
        class Engine:
            def run(self, ok):
                kind = "merge" if ok else "gathered"
                self.events.emit(0, kind)
                self.events.emit(1, "budget_exhausted")
        """
        assert _e1(GOOD_DOC, textwrap.dedent(code), tmp_path) == []

    def test_fires_on_missing_markers(self, tmp_path):
        findings = _e1("| `merge` | x |\n", EMITTING_ENGINE, tmp_path)
        assert len(findings) == 1
        assert "marked table" in findings[0].message

    def test_documented_kinds_parser(self):
        kinds = documented_kinds(textwrap.dedent(GOOD_DOC))
        assert set(kinds) == {"merge", "gathered", "budget_exhausted"}


TERMINAL_MODULE = """
TERMINAL_KINDS = ("gathered", "connectivity_lost", "budget_exhausted")


def run_engine(engine, gathered, lost):
    terminal = (
        "gathered" if gathered
        else "connectivity_lost" if lost
        else "budget_exhausted"
    )
    engine.events.emit(engine.round_index, terminal)
"""

STRAY_TERMINAL = """
class Engine:
    def step(self):
        self.events.emit(0, "merge", removed=1)
        self.events.emit(1, "connectivity_lost"){suppress}
"""

TERMINAL_DOC = GOOD_DOC.replace(
    "| `budget_exhausted` | — |",
    "| `budget_exhausted` | — |\n| `connectivity_lost` | — |",
)


def _e1_tree(tmp_path, engine_code, terminal_module=TERMINAL_MODULE):
    """Lint a fixture tree (the terminal module, one engine module and
    the event doc) with E1 through the runner, which applies
    suppressions."""
    files = {
        "src/repro/engine/termination.py": terminal_module,
        "src/repro/engine/fixture.py": engine_code,
        "docs/fixture_events.md": TERMINAL_DOC,
    }
    for rel, text in files.items():
        path = tmp_path / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(text))
    rule = EventDocsCrossCheckRule(
        code_prefixes=("src/repro/engine/",),
        doc_path="docs/fixture_events.md",
    )
    return Runner([rule], repo_root=tmp_path).run([tmp_path / "src"])


class TestE1TerminalKinds:
    """Only the run loop in ``engine/termination.py`` emits terminal
    kinds; E1 reads them from that module's ``TERMINAL_KINDS``."""

    def test_fires_on_stray_terminal_emit(self, tmp_path):
        report = _e1_tree(tmp_path, STRAY_TERMINAL.format(suppress=""))
        assert len(report.active) == 1
        finding = report.active[0]
        assert finding.rule == "E1"
        assert finding.path == "src/repro/engine/fixture.py"
        assert finding.line == 5
        assert "`connectivity_lost`" in finding.message

    def test_honors_suppression(self, tmp_path):
        code = STRAY_TERMINAL.format(
            suppress="  # reprolint: ok[E1] fixture: a stray terminal"
        )
        report = _e1_tree(tmp_path, code)
        assert report.active == []
        assert [f.reason for f in report.suppressed] == [
            "fixture: a stray terminal"
        ]

    def test_fires_on_non_literal_tuple(self, tmp_path):
        module = TERMINAL_MODULE.replace(
            'TERMINAL_KINDS = ("gathered",',
            'TERMINAL_KINDS = tuple(["gathered"]) + (',
        )
        code = STRAY_TERMINAL.format(suppress="")
        report = _e1_tree(tmp_path, code, terminal_module=module)
        assert [f.path for f in report.active] == [
            "src/repro/engine/termination.py"
        ]
        assert "literal" in report.active[0].message

    def test_quiet_on_live_tree(self):
        from repro.engine.termination import TERMINAL_KINDS

        rule = EventDocsCrossCheckRule()
        paths = [REPO / "src", REPO / "tools", REPO / "benchmarks"]
        report = Runner([rule], repo_root=REPO).run(paths)
        assert report.active == []
        kinds, problems = rule.terminal_kinds([], REPO)
        assert kinds == set(TERMINAL_KINDS) and problems == []


# ----------------------------------------------------------------------
# A1 — bare asserts
# ----------------------------------------------------------------------
class TestA1BareAssert:
    def test_fires_in_src(self):
        findings = run_file_rule(
            BareAssertRule(),
            "src/repro/core/example.py",
            "def f(x):\n    assert x is not None\n    return x\n",
        )
        assert len(findings) == 1
        assert findings[0].rule == "A1"
        assert "InvariantError" in findings[0].message

    def test_exempt_in_tests_and_benchmarks(self):
        rule = BareAssertRule()
        assert not rule.applies("tests/test_example.py")
        assert not rule.applies("benchmarks/bench_example.py")
        assert not rule.applies("src/repro/conftest.py")

    def test_quiet_on_raise(self):
        findings = run_file_rule(
            BareAssertRule(),
            "src/repro/core/example.py",
            """
            from repro.errors import InvariantError

            def f(x):
                if x is None:
                    raise InvariantError("x missing")
                return x
            """,
        )
        assert findings == []


# ----------------------------------------------------------------------
# Runner plumbing
# ----------------------------------------------------------------------
def _run_snippet(rel: str, code: str):
    """Run the full default-rule Runner over one in-memory snippet."""

    class _OneFileRunner(Runner):
        def load(self, path: Path) -> SourceFile:
            return SourceFile(path, rel, code)

    runner = _OneFileRunner(
        [r for r in default_rules() if not hasattr(r, "check_project")],
        repo_root=REPO,
    )
    report = runner.run([REPO / rel])
    return report


class TestRunner:
    def test_report_is_sorted_and_json_ready(self):
        code = (
            "import random\n"
            "def f(cells: set):\n"
            "    random.seed(1)\n"
            "    return list(cells)\n"
        )
        report = _run_snippet("src/repro/core/example.py", code)
        lines = [(f.path, f.line) for f in report.active]
        assert lines == sorted(lines)
        data = report.as_json()
        assert data["ok"] is False
        assert set(data["counts_by_rule"]) >= {"D1", "D3"}

    def test_multi_rule_suppression(self):
        code = (
            "import random\n"
            "def f(cells: set):\n"
            "    # reprolint: ok[D1, D3] fixture exercising multi-ids\n"
            "    return list(cells) + [random.random()]\n"
        )
        report = _run_snippet("src/repro/core/example.py", code)
        assert report.active == []
        assert len(report.suppressed) == 2


# ----------------------------------------------------------------------
# The live tree
# ----------------------------------------------------------------------
class TestLiveTree:
    def test_live_tree_is_clean(self):
        """The real codebase passes the default configuration.

        This is the meta-test the satellite demands: a `random.random()`
        in src/repro, a `self.` write reachable from `_plan_one`, a new
        undocumented event kind, or a bare assert in shipped code all
        fail HERE, inside tier-1.
        """
        runner = Runner(default_rules(), repo_root=REPO)
        paths = [REPO / "src", REPO / "tools", REPO / "benchmarks"]
        report = runner.run(paths)
        assert report.active == [], "\n" + "\n".join(
            f.render() for f in report.active
        )

    def test_every_live_suppression_has_a_reason(self):
        runner = Runner(default_rules(), repo_root=REPO)
        report = runner.run(
            [REPO / "src", REPO / "tools", REPO / "benchmarks"]
        )
        for f in report.suppressed:
            assert f.reason, f.render()

    def test_cli_exit_status_and_json(self, tmp_path):
        out = tmp_path / "report.json"
        proc = subprocess.run(
            [
                sys.executable,
                "-m",
                "tools.reprolint",
                "src",
                "tools",
                "benchmarks",
                "--json",
                str(out),
            ],
            cwd=REPO,
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert out.exists()

    def test_cli_list_rules(self):
        proc = subprocess.run(
            [sys.executable, "-m", "tools.reprolint", "--list-rules"],
            cwd=REPO,
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        for rid in ("D1", "D2", "D3", "P1", "F1", "E1", "A1"):
            assert rid in proc.stdout

    def test_collect_files_skips_caches(self):
        files = collect_files([REPO / "tools"], REPO)
        assert all("__pycache__" not in str(p) for p in files)
