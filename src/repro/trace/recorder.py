"""JSONL trace recording of simulations.

One row per round with the full occupied-cell set (sorted, so traces are
canonical), plus a header row with metadata.  Traces are small for the
paper's swarm sizes (n <= a few thousand) and make failures reproducible:
every property-test counterexample can be dumped and replayed.

The recorder is an ``on_round`` hook and works with *any* facade
strategy: pass ``simulate(..., trace=fh)`` and it is wired up with
strategy/scheduler/family metadata automatically; it accepts anything
with a ``.cells`` surface (:class:`SwarmState`, the facade's
``StateView`` over chain/Euclidean states) or a bare cell iterable.

:class:`CheckpointRecorder` extends the format for long simulations:
every ``every`` rounds the row additionally embeds a controller
checkpoint (see :mod:`repro.trace.replay`), so a killed run resumes
from its last checkpoint row instead of from round zero.  Plain
:func:`load_trace` readers ignore the extra field — checkpointed traces
stay valid traces.
"""

from __future__ import annotations

import io
import json
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
    """Engine ``on_round`` hook that writes JSONL to a file or buffer."""

    def __init__(self, fh: TextIO, meta: Optional[dict] = None) -> None:
        self.fh = fh
        self._wrote_header = False
        self.meta = meta or {}

    def __call__(self, round_index: int, state: SwarmState) -> None:
        if not self._wrote_header:
            self.fh.write(
                json.dumps({"type": "header", **self.meta}) + "\n"
            )
            self._wrote_header = True
        cells = state.cells if hasattr(state, "cells") else state
        self.fh.write(
            json.dumps(
                {
                    "type": "round",
                    "round": round_index,
                    "cells": sorted(cells),
                }
            )
            + "\n"
        )


class CheckpointRecorder(TraceRecorder):
    """A :class:`TraceRecorder` that embeds periodic checkpoints.

    ``checkpoint_fn`` is called every ``every`` rounds (round 0
    included) and its JSON-able return value rides on that round's row;
    the stream is flushed after each checkpoint row so a SIGKILLed
    process leaves a resumable trace on disk.  The engine calls
    ``on_round`` *after* the round is applied and finalized, so a
    checkpoint at row ``r`` is the exact state a resumed engine
    continues from at round ``r + 1``.

    ``resume_after`` appends to an existing trace whose header and rows
    through round ``resume_after`` are already on disk: a run resumed
    from an earlier checkpoint replays those rounds without writing
    them a second time.
    """

    def __init__(
        self,
        fh: TextIO,
        checkpoint_fn: Callable[[], dict],
        *,
        meta: Optional[dict] = None,
        every: int = 50,
        resume_after: Optional[int] = None,
    ) -> None:
        if every < 1:
            raise ValueError(f"every must be >= 1, got {every}")
        super().__init__(fh, meta)
        self.checkpoint_fn = checkpoint_fn
        self.every = every
        self.resume_after = resume_after
        if resume_after is not None:
            self._wrote_header = True

    def __call__(self, round_index: int, state: SwarmState) -> None:
        if self.resume_after is not None and round_index <= self.resume_after:
            return
        if round_index % self.every != 0:
            super().__call__(round_index, state)
            return
        if not self._wrote_header:
            self.fh.write(
                json.dumps({"type": "header", **self.meta}) + "\n"
            )
            self._wrote_header = True
        cells = state.cells if hasattr(state, "cells") else state
        self.fh.write(
            json.dumps(
                {
                    "type": "round",
                    "round": round_index,
                    "cells": sorted(cells),
                    "checkpoint": self.checkpoint_fn(),
                }
            )
            + "\n"
        )
        self.fh.flush()


def load_trace(lines: Union[Iterator[str], List[str]]) -> List[TraceRow]:
    """Parse JSONL trace content into rows (header rows are skipped)."""
    return read_trace(lines)[1]


def read_trace(
    lines: Union[Iterator[str], List[str]],
) -> Tuple[dict, List[TraceRow]]:
    """Parse JSONL trace content into ``(header_meta, rows)``.

    The header meta is ``{}`` for headerless fragments; checkpoint
    payloads (when present) are preserved on their rows.  A final line
    without a newline that does not parse is a row torn by a crash and
    is skipped; a parse error anywhere else raises.
    """
    meta: dict = {}
    rows: List[TraceRow] = []
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
            continue
        if kind != "round":
            continue
        rows.append(
            TraceRow(
                round_index=int(obj["round"]),
                cells=tuple((int(x), int(y)) for x, y in obj["cells"]),
                checkpoint=obj.get("checkpoint"),
            )
        )
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
