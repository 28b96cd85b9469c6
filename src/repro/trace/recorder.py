"""JSONL trace recording of simulations.

Traces make failures reproducible: every property-test counterexample
can be dumped and replayed.  A trace is a header row with metadata,
then one row per round.  A row is either a *keyframe*, holding the
full occupied-cell set::

    {"type": "round", "round": 7, "cells": [[0, 0], [0, 1], ...]}

or a *delta*, holding the cells whose occupancy flipped since the
previous row::

    {"type": "round", "round": 8, "vacated": [[0, 0]], "occupied": [[1, 0]]}

Every list is sorted, so traces are canonical.  A row is a keyframe
when it is the first row the recorder writes, when it carries a
checkpoint, or when the state's cells are not a set (the chain and
Euclidean views are ordered multisets; a Euclidean run can put two
robots on one point).  A plain grid trace therefore has one keyframe,
and a round costs bytes in proportion to the robots that moved, not to
the swarm.  Every row says which kind it is, so traces written before
delta rows existed (full-cell rows only) and witness files read
unchanged; a reader that predates delta rows fails on one with
``KeyError`` rather than skipping it.

The recorder is an ``on_round`` hook and works with *any* facade
strategy: pass ``simulate(..., trace=fh)`` and it is wired up with
strategy/scheduler/family metadata automatically; it accepts anything
with a ``.cells`` surface (:class:`SwarmState`, the facade's
``StateView`` over chain/Euclidean states) or a bare cell iterable.

Long simulations pass a ``checkpoint_fn``: every ``every`` rounds the
row is a keyframe that also embeds a controller checkpoint (see
:mod:`repro.trace.replay`), so a killed run resumes from its last
checkpoint row instead of from round zero.

:class:`TraceDecoder` rebuilds full-cell rows from the stream;
:func:`read_trace` and :func:`repro.trace.tail.follow_rounds` share it.
"""

from __future__ import annotations

import io
import json
from bisect import bisect_left
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator, List, Optional, TextIO, Tuple, Union

from repro.grid.occupancy import SwarmState


@dataclass(frozen=True)
class TraceRow:
    round_index: int
    cells: tuple
    #: Embedded controller checkpoint (checkpointed traces only) — an
    #: opaque JSON dict for :func:`repro.trace.replay.resume_engine`.
    checkpoint: Optional[dict] = None


class TraceRecorder:
    """Engine ``on_round`` hook that writes a JSONL trace to a file or
    buffer.

    With a ``checkpoint_fn``, it is called every ``every`` rounds
    (round 0 included) and its JSON-able return value rides on that
    round's keyframe; the stream is flushed after each checkpoint row
    so a SIGKILLed process leaves a resumable trace on disk.  The
    engine calls ``on_round`` *after* the round is applied and
    finalized, so a checkpoint at row ``r`` is the exact state a
    resumed engine continues from at round ``r + 1``.

    ``resume_after`` is the last row read back from a trace being
    appended to: the header and the rows through that row's round are
    already on disk, so a run resumed from an earlier checkpoint
    replays those rounds without writing them a second time, and the
    first row it appends is diffed against that row's cells — the same
    delta an undisturbed run writes.
    """

    def __init__(
        self,
        fh: TextIO,
        meta: Optional[dict] = None,
        *,
        checkpoint_fn: Optional[Callable[[], dict]] = None,
        every: int = 50,
        resume_after: Optional[TraceRow] = None,
    ) -> None:
        if every < 1:
            raise ValueError(f"every must be >= 1, got {every}")
        self.fh = fh
        self.meta = meta or {}
        self.checkpoint_fn = checkpoint_fn
        self.every = every
        self._wrote_header = resume_after is not None
        self._skip_through = (
            -1 if resume_after is None else resume_after.round_index
        )
        # The previous row's cells while they form a set: the base the
        # next delta row is diffed against (None: write a keyframe).
        self._prev: Optional[set] = (
            None if resume_after is None else set(resume_after.cells)
        )

    def write_header(self) -> None:
        """Write the header row now and flush it, so a reader tailing
        the file sees it before round 0.  Otherwise the header is
        written just before the first row; a no-op once written."""
        if not self._wrote_header:
            self.fh.write(
                json.dumps({"type": "header", **self.meta}) + "\n"
            )
            self._wrote_header = True
        self.fh.flush()

    def __call__(self, round_index: int, state: SwarmState) -> None:
        if round_index <= self._skip_through:
            return
        if not self._wrote_header:
            self.write_header()
        cells = state.cells if hasattr(state, "cells") else state
        checkpoint = (
            self.checkpoint_fn is not None
            and round_index % self.every == 0
        )
        is_set = isinstance(cells, (set, frozenset))
        prev = self._prev
        row = {"type": "round", "round": round_index}
        if is_set and prev is not None and not checkpoint:
            row["vacated"] = vacated = sorted(prev - cells)
            row["occupied"] = occupied = sorted(cells - prev)
            prev.difference_update(vacated)
            prev.update(occupied)
        else:
            self._prev = set(cells) if is_set else None
            row["cells"] = sorted(cells)
        if checkpoint:
            row["checkpoint"] = self.checkpoint_fn()
        self.fh.write(json.dumps(row) + "\n")
        if checkpoint:
            self.fh.flush()


class TraceDecoder:
    """Rebuilds full-cell rows from a trace's keyframe and delta rows.

    Feed it the parsed round rows in file order.  It holds the current
    cells, sorted, and applies each delta to them, so every row comes
    back as a :class:`TraceRow` whose sorted cells are the same tuple
    objects as its neighbours' (a delta creates only the cells it
    occupies).  Coordinates stay the numbers JSON returns: a Euclidean
    trace keeps its floats.  Raises ``ValueError`` naming the round
    when a delta comes before any keyframe, vacates an empty cell or
    occupies a full one.
    """

    def __init__(self) -> None:
        self._cells: Optional[List[tuple]] = None

    def decode(self, obj: dict) -> TraceRow:
        round_index = int(obj["round"])
        checkpoint = obj.get("checkpoint")
        if "cells" in obj:
            self._cells = sorted(map(tuple, obj["cells"]))
            return TraceRow(round_index, tuple(self._cells), checkpoint)
        cells = self._cells
        if cells is None:
            raise ValueError(
                f"trace round {round_index}: delta row before any "
                f"keyframe"
            )
        for cell in map(tuple, obj["vacated"]):
            i = bisect_left(cells, cell)
            if i == len(cells) or cells[i] != cell:
                raise ValueError(
                    f"trace round {round_index}: delta vacates the "
                    f"empty cell {list(cell)}"
                )
            del cells[i]
        for cell in map(tuple, obj["occupied"]):
            i = bisect_left(cells, cell)
            if i < len(cells) and cells[i] == cell:
                raise ValueError(
                    f"trace round {round_index}: delta occupies the "
                    f"full cell {list(cell)}"
                )
            cells.insert(i, cell)
        return TraceRow(round_index, tuple(cells), checkpoint)


def load_trace(lines: Union[Iterator[str], List[str]]) -> List[TraceRow]:
    """Parse JSONL trace content into rows (header rows are skipped)."""
    return read_trace(lines)[1]


def read_trace(
    lines: Union[Iterator[str], List[str]],
) -> Tuple[dict, List[TraceRow]]:
    """Parse JSONL trace content into ``(header_meta, rows)``, each row
    with its full cells (see :class:`TraceDecoder`).

    The header meta is ``{}`` for headerless fragments; checkpoint
    payloads (when present) are preserved on their rows.  A final line
    without a newline that does not parse is a row torn by a crash and
    is skipped; a parse error anywhere else raises.
    """
    meta: dict = {}
    rows: List[TraceRow] = []
    decoder = TraceDecoder()
    torn: Optional[ValueError] = None
    for raw in lines:
        line = raw.strip()
        if not line:
            continue
        if torn is not None:
            raise torn  # the unparsable line was not the last one
        try:
            obj = json.loads(line)
        except ValueError as exc:
            if raw.endswith("\n"):
                raise
            torn = exc
            continue
        kind = obj.get("type")
        if kind == "header":
            meta = {k: v for k, v in obj.items() if k != "type"}
        elif kind == "round":
            rows.append(decoder.decode(obj))
    return meta, rows


def read_resumable_trace(
    path: Union[str, Path],
) -> Tuple[dict, List[TraceRow]]:
    """Read a trace file that a killed writer may have left, ready for
    appending: a torn final line is cut off the file, so appended rows
    start on a fresh line.  ``({}, [])`` when the file does not exist.
    """
    path = Path(path)
    if not path.exists():
        return {}, []
    data = path.read_bytes()
    end = data.rfind(b"\n") + 1
    if end < len(data):
        with path.open("r+b") as fh:
            fh.truncate(end)
    return read_trace(io.StringIO(data[:end].decode("utf-8")))
