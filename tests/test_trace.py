"""Unit tests for trace recording, deterministic replay, and tailing."""

import io
import json
import threading

import pytest

from repro.baselines.chain import hairpin_chain
from repro.core.algorithm import GatherOnGrid
from repro.engine.scheduler import RoundEngine
from repro.engine.termination import run_engine
from repro.grid.occupancy import SwarmState
from repro.swarms.generators import ring
from repro.trace.recorder import (
    TraceRecorder,
    load_trace,
    read_resumable_trace,
    read_trace,
)
from repro.trace.replay import replay, verify_trace
from repro.trace.tail import follow_rounds


def record(cells, rounds, **kwargs):
    buf = io.StringIO()
    rec = TraceRecorder(buf, meta={"shape": "test"}, **kwargs)
    engine = RoundEngine(SwarmState(cells), GatherOnGrid())
    run_engine(engine, max_rounds=rounds, on_round=rec)
    return buf.getvalue()


class TestRecorder:
    def test_header_written_once(self):
        payload = record(ring(8), 3)
        lines = payload.strip().splitlines()
        assert lines[0].startswith('{"type": "header"')
        assert sum(1 for l in lines if '"header"' in l) == 1

    def test_rows_parse(self):
        payload = record(ring(8), 3)
        rows = load_trace(payload.splitlines())
        assert [r.round_index for r in rows] == [0, 1, 2]
        assert all(isinstance(r.cells, tuple) for r in rows)

    def test_cells_sorted_canonical(self):
        payload = record(ring(8), 1)
        rows = load_trace(payload.splitlines())
        assert list(rows[0].cells) == sorted(rows[0].cells)

    def test_write_header_up_front(self):
        eager = io.StringIO()
        rec = TraceRecorder(eager, meta={"shape": "test"})
        rec.write_header()
        assert eager.getvalue() == '{"type": "header", "shape": "test"}\n'
        engine = RoundEngine(SwarmState(ring(8)), GatherOnGrid())
        run_engine(engine, max_rounds=3, on_round=rec)
        assert eager.getvalue() == record(ring(8), 3)


class TestDeltaRows:
    """Keyframes hold every cell; delta rows only the flipped ones."""

    def test_plain_trace_has_one_keyframe(self):
        rows = [
            json.loads(line)
            for line in record(ring(16), 8).splitlines()[1:]
        ]
        assert sorted(rows[0]) == ["cells", "round", "type"]
        for row in rows[1:]:
            assert sorted(row) == ["occupied", "round", "type", "vacated"]
            assert row["vacated"] == sorted(row["vacated"])
            assert row["occupied"] == sorted(row["occupied"])

    def test_checkpoint_rows_are_keyframes(self):
        payload = record(
            ring(16), 8, checkpoint_fn=lambda: {"at": "test"}, every=3
        )
        rows = [json.loads(line) for line in payload.splitlines()[1:]]
        assert ["cells" in row for row in rows] == [
            row["round"] % 3 == 0 for row in rows
        ]
        assert all(
            ("checkpoint" in row) == ("cells" in row) for row in rows
        )

    @pytest.mark.parametrize(
        "strategy, cells",
        [
            ("grid", ring(12)),
            ("chain", hairpin_chain(8)),
            ("euclidean", ring(6)),
        ],
    )
    def test_decoded_rows_equal_the_trajectory(
        self, strategy, cells, simulate_cells
    ):
        # Euclidean rows hold floats and, late in the run, two robots on
        # one point: they must decode as written, not rounded to ints.
        buf = io.StringIO()
        result, frames = simulate_cells(cells, strategy=strategy, trace=buf)
        rows = load_trace(buf.getvalue().splitlines())
        assert [row.round_index for row in rows] == list(
            range(result.rounds)
        )
        assert [row.cells for row in rows] == frames

    def test_rows_share_cell_objects(self):
        rows = load_trace(record(ring(16), 8).splitlines())
        first = {id(cell) for cell in rows[0].cells}
        assert any(id(cell) in first for cell in rows[-1].cells)


class TestDecoderErrors:
    """A delta that does not fit the cells it follows raises, naming
    its round, in both readers."""

    KEYFRAME = '{"type": "round", "round": 0, "cells": [[0, 0], [0, 1]]}\n'

    @pytest.mark.parametrize(
        "lines, message",
        [
            (
                ['{"type": "round", "round": 3, "vacated": [], '
                 '"occupied": [[0, 0]]}\n'],
                "round 3: delta row before any keyframe",
            ),
            (
                [KEYFRAME,
                 '{"type": "round", "round": 1, "vacated": [[5, 5]], '
                 '"occupied": []}\n'],
                "round 1: delta vacates the empty cell",
            ),
            (
                [KEYFRAME,
                 '{"type": "round", "round": 1, "vacated": [], '
                 '"occupied": [[0, 1]]}\n'],
                "round 1: delta occupies the full cell",
            ),
        ],
    )
    def test_bad_delta_raises(self, tmp_path, lines, message):
        with pytest.raises(ValueError, match=message):
            read_trace(lines)
        path = tmp_path / "bad.jsonl"
        path.write_text("".join(lines))
        with pytest.raises(ValueError, match=message):
            list(follow_rounds(str(path), stop=lambda: True))


class TestTornTraces:
    """A crash can cut the last row short; only that row may be lost."""

    def test_unterminated_torn_last_line_is_skipped(self):
        payload = record(ring(8), 3)
        torn = payload[:-25]
        lines = io.StringIO(torn).readlines()
        meta, rows = read_trace(lines)
        assert meta == {"shape": "test"}
        assert [r.round_index for r in rows] == [0, 1]
        # splitlines() input carries no newlines; the last line still
        # counts as the torn one.
        assert len(load_trace(torn.splitlines())) == 2

    def test_parse_error_elsewhere_still_raises(self):
        payload = record(ring(8), 3)
        lines = io.StringIO(payload).readlines()
        # a terminated garbage line at the end
        with pytest.raises(json.JSONDecodeError):
            read_trace(lines + ["{not json\n"])
        # an unterminated garbage line that is not the last one
        garbled = payload.splitlines()
        garbled[1] = garbled[1][:-5]
        with pytest.raises(json.JSONDecodeError):
            read_trace(garbled)

    def test_read_resumable_trace_cuts_the_torn_tail(self, tmp_path):
        payload = record(ring(8), 3)
        path = tmp_path / "t.jsonl"
        path.write_text(payload[:-25])
        meta, rows = read_resumable_trace(path)
        assert [r.round_index for r in rows] == [0, 1]
        complete = "".join(io.StringIO(payload).readlines()[:3])
        assert path.read_text() == complete
        assert read_resumable_trace(tmp_path / "missing.jsonl") == ({}, [])


class TestReplay:
    def test_replay_matches_recording(self):
        cells = ring(10)
        payload = record(cells, 5)
        rows = load_trace(payload.splitlines())
        assert verify_trace(cells, rows)

    def test_tampered_trace_detected(self):
        cells = ring(10)
        payload = record(cells, 5)
        rows = load_trace(payload.splitlines())
        bad = list(rows)
        tampered = tuple([(99, 99)] + list(bad[-1].cells[1:]))
        bad[-1] = type(bad[-1])(bad[-1].round_index, tampered)
        assert not verify_trace(cells, bad)

    def test_replay_stops_at_gathering(self):
        states = replay([(0, 0), (1, 0), (2, 0)], rounds=50)
        assert len(states) <= 3


class TestFollowRounds:
    """Live tailing across the worker/server process boundary."""

    def test_follows_a_growing_file(self, tmp_path):
        # A writer thread appends rows with per-row flushes while the
        # follower reads; the follower must see every round, in order,
        # including rows written *after* stop() first returns False.
        path = tmp_path / "trace.jsonl"
        done = threading.Event()
        payload = record(ring(16), 8)
        expected = [
            r.round_index for r in load_trace(payload.splitlines())
        ]
        assert len(expected) >= 5  # meaningful follow window

        def write_slowly():
            with path.open("w") as fh:
                for line in payload.splitlines():
                    fh.write(line + "\n")
                    fh.flush()
            done.set()

        writer = threading.Thread(target=write_slowly)
        writer.start()
        rows = list(
            follow_rounds(
                str(path), poll_interval=0.005, stop=done.is_set
            )
        )
        writer.join()
        assert [r.round_index for r in rows] == expected

    def test_waits_for_missing_file_and_start_round(self, tmp_path):
        path = tmp_path / "late.jsonl"
        done = threading.Event()
        payload = record(ring(16), 8)
        expected = [
            r.round_index
            for r in load_trace(payload.splitlines())
            if r.round_index >= 2
        ]
        assert expected  # the tail must be non-empty to test skipping

        def create_late():
            path.write_text(payload)
            done.set()

        writer = threading.Thread(target=create_late)
        writer.start()
        rows = list(
            follow_rounds(
                str(path),
                poll_interval=0.005,
                stop=done.is_set,
                start_round=2,
            )
        )
        writer.join()
        assert [r.round_index for r in rows] == expected

    def test_partial_lines_are_not_parsed(self, tmp_path):
        # Only newline-terminated lines count; a torn tail line is
        # buffered until its newline arrives (here: never).
        path = tmp_path / "torn.jsonl"
        full = record(ring(8), 3)
        path.write_text(full[: len(full) - 10])  # cut mid-row
        rows = list(
            follow_rounds(
                str(path), poll_interval=0.005, stop=lambda: True
            )
        )
        assert [r.round_index for r in rows] == [0, 1]

    def test_complete_garbage_line_raises(self, tmp_path):
        # Skipping it would apply every later delta to the wrong cells.
        path = tmp_path / "garbled.jsonl"
        lines = io.StringIO(record(ring(8), 3)).readlines()
        path.write_text("".join(lines[:2]) + "{not json\n" + lines[2])
        with pytest.raises(json.JSONDecodeError):
            list(follow_rounds(str(path), stop=lambda: True))

    def test_duplicated_rows_are_not_yielded_twice(self, tmp_path):
        # A writer that resumes from an earlier checkpoint and appends
        # rounds the follower already yielded: they are skipped.
        path = tmp_path / "dup.jsonl"
        lines = io.StringIO(record(ring(12), 6)).readlines()
        path.write_text("".join(lines[:5]))  # header + rounds 0..3
        done = threading.Event()
        follower = follow_rounds(
            str(path), poll_interval=0.001, stop=done.is_set
        )
        seen = [next(follower) for _ in range(4)]
        with path.open("a") as fh:
            fh.write("".join(lines[3:]))  # rounds 2..5
        done.set()
        seen += list(follower)
        assert [r.round_index for r in seen] == [0, 1, 2, 3, 4, 5]

    def test_rewritten_torn_row_is_read_from_its_start(self, tmp_path):
        # The torn row and its rewrite need not be byte-identical (here
        # the torn one carried a checkpoint): the follower re-reads the
        # whole rewritten line instead of gluing bytes onto the tear.
        path = tmp_path / "torn.jsonl"
        lines = io.StringIO(record(ring(12), 6)).readlines()
        row4 = json.loads(lines[5])
        row4["checkpoint"] = {"next_id": 0, "runs": []}
        path.write_text("".join(lines[:5]) + json.dumps(row4)[:-10])
        done = threading.Event()
        follower = follow_rounds(
            str(path), poll_interval=0.001, stop=done.is_set
        )
        seen = [next(follower) for _ in range(4)]
        read_resumable_trace(path)  # the resumed writer cuts the tear
        with path.open("a") as fh:
            fh.write("".join(lines[5:]))  # rounds 4..5
        done.set()
        seen += list(follower)
        assert [r.round_index for r in seen] == [0, 1, 2, 3, 4, 5]
        assert seen[4].checkpoint is None
