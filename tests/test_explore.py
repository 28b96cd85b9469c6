"""The scheduler-nondeterminism explorer (repro.explore).

Layers under test:

1. **Canonical forms** — translation/D4 normalization of cell sets and
   the full state key (cells + run table + phase): invariance under
   shifts, soundness of the run-id ranking, phase arithmetic.
2. **Exhaustive closure** — pinned node/edge/status counts for small
   seeds, including the automatically rediscovered SSYNC connectivity
   counterexample (the L-tetromino breaks at depth 1) and the FSYNC
   anchor (the full-activation path reproduces engine rounds).
3. **Witnesses** — DAG paths become concrete token schedules that the
   stock SSYNC scheduler replays bit-identically; JSONL round-trip and
   a committed golden witness file guard the format.
4. **Worst-case analysis** — longest-schedule extraction and livelock
   (cycle) detection, with and without stall edges.
5. **Beam mode** — seeded, deterministic, explicitly truncated.
6. **Certification** — the machine-checked bound-table sweep used by
   the CI job, at tier-1 sizes (n <= 4).
7. **Viz + CLI** — DOT/HTML export and the ``explore``/``certify``
   subcommands.
"""

from __future__ import annotations

import io
import json

import pytest

from repro.core.config import AlgorithmConfig
from repro.errors import InvariantError
from repro.explore import (
    build_witness,
    canonical_state_key,
    explore,
    load_witness,
    round_phase,
    save_witness,
    verify_witness,
)
from repro.grid.canonical import (
    apply_d4,
    d4_normal_form,
    occupancy_key,
    translation_normal_form,
)

CFG = AlgorithmConfig()

#: The paper-documented SSYNC counterexample seed: an L-tetromino whose
#: corner is an articulation point a partial activation can strand.
L_TETROMINO = [(0, 0), (0, 1), (0, 2), (1, 0)]
LINE4 = [(0, 0), (0, 1), (0, 2), (0, 3)]


# ----------------------------------------------------------------------
# 1. canonical forms
# ----------------------------------------------------------------------
class TestCanonicalForms:
    def test_translation_normal_form_rebases_to_origin(self):
        normal, offset = translation_normal_form([(7, 9), (8, 9), (7, 10)])
        assert normal == ((0, 0), (0, 1), (1, 0))
        assert offset == (7, 9)

    def test_translation_invariance(self):
        base = [(0, 0), (1, 0), (1, 1), (2, 1)]
        for dx, dy in [(3, -2), (-100, 41), (0, 0)]:
            shifted = [(x + dx, y + dy) for x, y in base]
            assert (
                translation_normal_form(shifted)[0]
                == translation_normal_form(base)[0]
            )

    def test_d4_normal_form_identifies_all_eight_images(self):
        base = L_TETROMINO
        forms = {
            d4_normal_form([apply_d4(i, c) for c in base]) for i in range(8)
        }
        assert len(forms) == 1

    def test_d4_separates_distinct_free_shapes(self):
        assert d4_normal_form(LINE4) != d4_normal_form(L_TETROMINO)

    def test_occupancy_key_symmetry_levels(self):
        a = [(5, 5), (5, 6), (6, 5)]
        b = [(0, 0), (0, 1), (1, 0)]
        assert occupancy_key(a, symmetry="none") != occupancy_key(
            b, symmetry="none"
        )
        assert occupancy_key(a, symmetry="translation") == occupancy_key(
            b, symmetry="translation"
        )
        with pytest.raises(ValueError, match="symmetry"):
            occupancy_key(a, symmetry="affine")

    def test_state_key_translation_invariant(self):
        empty = {"next_id": 0, "runs": []}
        key0, off0 = canonical_state_key(LINE4, empty, 0)
        shifted = [(x + 9, y - 4) for x, y in LINE4]
        key1, off1 = canonical_state_key(shifted, empty, 0)
        assert key0 == key1
        assert off1 == (off0[0] + 9, off0[1] - 4)

    def test_state_key_separates_phase(self):
        empty = {"next_id": 0, "runs": []}
        key0, _ = canonical_state_key(LINE4, empty, 0)
        key1, _ = canonical_state_key(LINE4, empty, 1)
        assert key0 != key1

    def test_round_phase_tracks_start_interval(self):
        assert round_phase(0, CFG) == 0
        assert round_phase(CFG.run_start_interval, CFG) == 0
        assert round_phase(1, CFG) == 1 % CFG.run_start_interval
        no_pipe = AlgorithmConfig(pipelining=False)
        assert round_phase(0, no_pipe) == 0
        assert round_phase(1, no_pipe) == 1
        assert round_phase(50, no_pipe) == 1


# ----------------------------------------------------------------------
# 2. exhaustive closure
# ----------------------------------------------------------------------
class TestExhaustiveClosure:
    def test_gathered_seed_is_a_single_terminal_node(self):
        dag = explore([(0, 0), (0, 1), (1, 0), (1, 1)])
        assert dag.counts() == {"total": 1, "edges": 0, "gathered": 1}
        assert dag.complete

    def test_line4_closure_counts(self):
        dag = explore(LINE4)
        counts = dag.counts()
        assert dag.complete
        assert counts["total"] == 88
        assert counts["edges"] == 176
        assert counts["gathered"] == 44
        assert counts.get("disconnected", 0) == 0

    def test_rediscovers_documented_connectivity_break(self):
        """The explorer finds the SSYNC counterexample on its own: the
        L-tetromino disconnects at depth 1 when only the corner's
        neighbor moves (the run table advances as if the plan ran)."""
        dag = explore(L_TETROMINO)
        counts = dag.counts()
        assert dag.complete
        assert counts["total"] == 396
        assert counts["disconnected"] == 88
        broken = dag.first("disconnected")
        assert broken is not None and broken.depth == 1

    def test_status_precedence_matches_engine(self):
        """A two-robot diagonal pair fits the 2x2 gathering box while
        being disconnected; the engine terminates such runs ``gathered``
        (the bounding-box test wins), so the explorer must classify the
        state identically or witnesses would not replay."""
        from repro.explore.driver import _status_of

        assert _status_of({(0, 0), (1, 1)}) == "gathered"
        assert _status_of({(0, 0), (2, 2)}) == "disconnected"

    def test_terminal_nodes_have_no_edges(self):
        dag = explore(L_TETROMINO)
        for node in dag.nodes.values():
            if node.status != "open":
                assert node.edges is None

    def test_exhaustive_branch_count_is_subset_lattice(self):
        """Every expanded node has exactly 2^m outgoing edges for its m
        planned movers (the full activation-subset lattice)."""
        dag = explore(LINE4)
        for node in dag.nodes.values():
            if node.edges is None:
                continue
            movers = max(len(e.choice) for e in node.edges)
            assert len(node.edges) == 1 << movers

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError, match="empty"):
            explore([])
        with pytest.raises(ValueError, match="connected"):
            explore([(0, 0), (5, 5)])
        with pytest.raises(ValueError, match="mode"):
            explore(LINE4, mode="dfs")

    def test_max_nodes_marks_truncated(self):
        dag = explore(L_TETROMINO, max_nodes=20)
        assert dag.truncated and not dag.complete

    def test_max_depth_marks_truncated(self):
        dag = explore(LINE4, max_depth=1)
        assert dag.truncated
        assert dag.max_depth_reached == 1


# ----------------------------------------------------------------------
# 3. witnesses
# ----------------------------------------------------------------------
class TestWitnesses:
    def test_connectivity_witness_replays_bit_identically(self):
        dag = explore(L_TETROMINO)
        witness = build_witness(dag, target=dag.first("disconnected").key)
        assert witness.terminal == "connectivity_lost"
        assert witness.violation_round == 0
        assert witness.schedule == [(1,)]
        assert witness.fairness_k == 2
        assert verify_witness(witness, cfg=CFG)

    def test_witness_for_translated_seed(self):
        """Offset accounting: the same witness reconstructs from a
        shifted seed (canonical frames differ from the real one)."""
        shifted = [(x + 13, y - 7) for x, y in L_TETROMINO]
        dag = explore(shifted)
        witness = build_witness(dag, target=dag.first("disconnected").key)
        assert witness.initial == tuple(sorted(shifted))
        assert verify_witness(witness)

    def test_gathering_witness_verifies(self):
        dag = explore(LINE4)
        worst = dag.worst_case()
        witness = build_witness(dag, worst.path)
        assert witness.terminal == "gathered"
        assert witness.rounds == 2
        assert verify_witness(witness)

    def test_jsonl_round_trip(self):
        dag = explore(L_TETROMINO)
        witness = build_witness(dag, target=dag.first("disconnected").key)
        buf = io.StringIO()
        save_witness(witness, buf)
        loaded = load_witness(buf.getvalue().splitlines())
        assert loaded.initial == witness.initial
        assert loaded.schedule == witness.schedule
        assert loaded.rows == witness.rows
        assert loaded.terminal == witness.terminal
        assert loaded.fairness_k == witness.fairness_k
        assert verify_witness(loaded)

    def test_load_rejects_foreign_traces(self):
        lines = [json.dumps({"type": "header", "kind": "plain_trace"})]
        with pytest.raises(ValueError, match="ssync_witness"):
            load_witness(lines)

    def test_golden_witness_file_still_replays(self, golden_witness_path):
        """Regression: the committed witness artifact replays
        bit-identically through today's scheduler, and regenerating it
        from a fresh exploration reproduces the file byte for byte."""
        with open(golden_witness_path) as fh:
            text = fh.read()
        witness = load_witness(text.splitlines())
        assert witness.initial == tuple(sorted(L_TETROMINO))
        assert verify_witness(witness)

        dag = explore(L_TETROMINO)
        rebuilt = build_witness(dag, target=dag.first("disconnected").key)
        buf = io.StringIO()
        save_witness(rebuilt, buf)
        assert buf.getvalue() == text

    def test_tampered_witness_fails_verification(self):
        dag = explore(L_TETROMINO)
        witness = build_witness(dag, target=dag.first("disconnected").key)
        witness.rows[-1] = tuple(
            (x + 1, y) for x, y in witness.rows[-1]
        )
        assert not verify_witness(witness)

    def test_build_witness_needs_a_path(self):
        dag = explore(LINE4)
        with pytest.raises(ValueError, match="edges or a target"):
            build_witness(dag)


@pytest.fixture
def golden_witness_path():
    import os

    return os.path.join(
        os.path.dirname(__file__), "data", "ssync_witness_n4.jsonl"
    )


# ----------------------------------------------------------------------
# 4. worst-case analysis
# ----------------------------------------------------------------------
class TestWorstCase:
    def test_line4_worst_schedule_is_two_rounds(self):
        """FSYNC gathers line-4 in 1 round; the SSYNC adversary can
        stretch it to exactly 2 without stalling or disconnecting."""
        dag = explore(LINE4)
        worst = dag.worst_case()
        assert not worst.unbounded
        assert worst.complete
        assert worst.rounds == 2
        assert len(worst.path) == 2

    def test_l_tetromino_has_a_nonstall_livelock(self):
        """Without a fairness bound the adversary can cycle the
        L-tetromino forever while activating someone every round."""
        dag = explore(L_TETROMINO)
        worst = dag.worst_case()
        assert worst.unbounded
        assert worst.rounds is None
        # the cycle witness closes on itself
        assert worst.cycle[0] == worst.cycle[-1]
        assert len(worst.cycle) > 2

    def test_stall_edges_always_cycle(self):
        """With stall edges included, idling forever is a (trivial)
        cycle — the reason include_stall defaults to False here."""
        worst = explore(LINE4).worst_case(include_stall=True)
        assert worst.unbounded

    def test_truncated_dag_is_not_a_certificate(self):
        dag = explore(LINE4, max_depth=1)
        assert not dag.worst_case().complete


# ----------------------------------------------------------------------
# 5. beam mode
# ----------------------------------------------------------------------
class TestBeamMode:
    def test_beam_is_seed_deterministic(self):
        kwargs = dict(
            mode="beam", beam_width=8, branch_samples=6, seed=5
        )
        a = explore(L_TETROMINO, **kwargs)
        b = explore(L_TETROMINO, **kwargs)
        assert list(a.nodes) == list(b.nodes)
        assert a.counts() == b.counts()

    def test_beam_subsamples_the_lattice(self):
        full = explore(L_TETROMINO)
        beam = explore(
            L_TETROMINO, mode="beam", beam_width=4, branch_samples=4
        )
        assert beam.counts()["total"] < full.counts()["total"]
        assert not beam.complete

    def test_beam_still_finds_the_break(self):
        beam = explore(
            L_TETROMINO, mode="beam", beam_width=8, branch_samples=8
        )
        assert beam.first("disconnected") is not None


# ----------------------------------------------------------------------
# 6. certification
# ----------------------------------------------------------------------
class TestCertification:
    @pytest.fixture(scope="class")
    def report(self):
        from repro.analysis.certification import run_certification

        return run_certification(max_n=4, min_n=3)

    def test_small_n_sweep_is_green(self, report):
        assert report["overall_ok"]
        assert [row["n"] for row in report["rows"]] == [3, 4]
        for row in report["rows"]:
            assert row["complete"]
            assert row["fsync_bound_ok"]
            assert row["fsync_path_consistent"]
            assert row["symmetry_consistent"]

    def test_pinned_breakability(self, report):
        by_n = {row["n"]: row for row in report["rows"]}
        assert by_n[3]["shapes"] == 6
        assert by_n[3]["states"] == 136
        assert by_n[3]["breakable_shapes"] == 0
        assert by_n[4]["shapes"] == 19
        assert by_n[4]["states"] == 4841
        assert by_n[4]["breakable_shapes"] == 16
        assert by_n[4]["min_violation_round"] == 1
        assert by_n[4]["min_fairness_k"] == 2
        assert by_n[4]["witness_verified"] is True

    def test_headline_witness_is_replayable(self, report):
        witness = report["witness"]
        assert witness is not None
        assert witness.terminal == "connectivity_lost"
        assert verify_witness(witness)

    def test_table_rendering(self, report):
        from repro.analysis.certification import format_certification

        text = format_certification(report)
        assert "SSYNC certification sweep" in text
        assert "fsync worst" in text

    @pytest.mark.parametrize(
        "strategy, symmetry",
        [("grid", "translation"), ("tolerant", "translation"),
         ("grid", "d4")],
    )
    def test_shared_plan_memo_leaves_every_dag_unchanged(
        self, strategy, symmetry
    ):
        """Every n <= 4 shape explored with a fresh plan memo and with
        one that every shape of the sweep has filled: the DAGs (node
        order, depth, status, parent and every edge) are identical."""
        from repro.swarms.enumerate import all_polyominoes

        shapes = [s for n in (3, 4) for s in all_polyominoes(n)]
        shared: dict = {}
        for shape in shapes:
            explore(shape, strategy=strategy, symmetry=symmetry,
                    plan_memo=shared)
        planned = sum(len(plans) for plans in shared.values())
        for shape in shapes:
            fresh = explore(shape, strategy=strategy, symmetry=symmetry)
            primed = explore(shape, strategy=strategy, symmetry=symmetry,
                             plan_memo=shared)
            assert list(primed.nodes.items()) == list(fresh.nodes.items())
            assert (primed.edge_count, primed.max_depth_reached) == (
                fresh.edge_count, fresh.max_depth_reached
            )
        # the primed pass planned nothing new
        assert sum(len(plans) for plans in shared.values()) == planned

    def test_fsync_budget_blowup_is_loud(self):
        from repro.analysis.certification import _fsync_rounds

        with pytest.raises(InvariantError, match="failed to gather"):
            _fsync_rounds(LINE4, CFG, budget=0)


# ----------------------------------------------------------------------
# 7. viz + CLI
# ----------------------------------------------------------------------
class TestVizAndCli:
    def test_dot_export(self):
        from repro.viz.stategraph import dag_to_dot

        dag = explore(L_TETROMINO)
        dot = dag_to_dot(dag)
        assert dot.startswith("digraph ssync_explore")
        assert dot.count("->") == dag.edge_count
        assert "#ea4335" in dot  # a disconnected node is rendered

    def test_dot_truncation_note(self):
        from repro.viz.stategraph import dag_to_dot

        dot = dag_to_dot(explore(L_TETROMINO), max_nodes=10)
        assert "more nodes" in dot

    def test_html_export_embeds_the_graph(self):
        from repro.viz.stategraph import dag_to_html

        dag = explore(LINE4)
        page = dag_to_html(dag, title="line-4")
        assert page.startswith("<!DOCTYPE html>")
        assert "<svg" in page
        start = page.index('id="dag-data">') + len('id="dag-data">')
        data = json.loads(page[start : page.index("</script>", start)])
        assert data["counts"]["total"] == 88
        assert len(data["nodes"]) == 88
        assert len(data["edges"]) == 176

    def test_cli_explore_json(self, capsys):
        from repro.cli import main

        rc = main(
            ["explore", "--family", "line", "-n", "4", "--json"]
        )
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["complete"] is True
        assert payload["counts"]["total"] == 88
        assert payload["first_violation_round"] is None

    def test_cli_explore_writes_witness_and_exports(self, tmp_path, capsys):
        from repro.cli import main

        witness_path = tmp_path / "w.jsonl"
        rc = main(
            [
                "explore",
                "--family",
                "staircase",
                "-n",
                "5",
                "--witness",
                str(witness_path),
                "--dot",
                str(tmp_path / "d.dot"),
                "--html",
                str(tmp_path / "d.html"),
            ]
        )
        assert rc == 0
        assert "connectivity break" in capsys.readouterr().out
        assert (tmp_path / "d.dot").read_text().startswith("digraph")
        assert "<svg" in (tmp_path / "d.html").read_text()

        rc = main(["explore", "--replay", str(witness_path)])
        assert rc == 0
        assert "replays bit-identically" in capsys.readouterr().out

    def test_cli_replay_missing_file_fails_cleanly(self, capsys):
        from repro.cli import main

        rc = main(["explore", "--replay", "/nonexistent/w.jsonl"])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_cli_certify_json(self, capsys):
        from repro.cli import main

        rc = main(["certify", "--min-n", "3", "--max-n", "4", "--json"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["overall_ok"] is True
        assert payload["witness"]["fairness_k"] == 2
        assert len(payload["rows"]) == 2
