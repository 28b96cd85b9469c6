"""Live tailing of JSONL traces across a process boundary.

The serving layer (:mod:`repro.service`) runs simulations in worker
*processes* that flush one trace row per round; the server process
turns those rows into Server-Sent Events by following the file as it
grows.  :func:`follow_rounds` is that follower: a generator yielding
:class:`~repro.trace.recorder.TraceRow` objects in round order, with
full cells rebuilt from keyframe and delta rows by the same
:class:`~repro.trace.recorder.TraceDecoder` that
:func:`~repro.trace.recorder.read_trace` uses.  It is safe against
partially written lines (only newline-terminated lines are parsed),
against a resumed writer (no round is decoded or yielded twice) and
against the file not existing yet (it waits).

``stop`` decouples termination from the file contents: traces do not
carry an end-of-stream marker (a killed worker leaves no footer), so
the caller supplies a predicate — "the run record says done/failed" —
and the follower drains whatever reached the disk, then returns.

Polling (rather than inotify) keeps this stdlib-portable; the default
interval is far below a round's simulation cost, so SSE consumers see
rounds essentially as they happen.
"""

from __future__ import annotations

import json
import os
import time
from typing import Callable, Iterator, Optional

from repro.trace.recorder import TraceDecoder, TraceRow


def follow_rounds(
    path: str,
    *,
    poll_interval: float = 0.05,
    stop: Optional[Callable[[], bool]] = None,
    start_round: int = 0,
) -> Iterator[TraceRow]:
    """Yield trace rows from ``path`` as they are appended.

    Header and unknown rows are skipped; rows with
    ``round_index < start_round`` are decoded but not yielded (resume
    support: a re-attached stream can ask only for the tail).  Round
    indexes only increase: a row whose round was already decoded is
    skipped before decoding, so a writer that resumes a killed run
    never shows a round twice and never applies a delta twice.  The
    follower's file position only advances past complete lines, so a
    resumed writer that cuts a torn final line off the file and
    rewrites it is read from the start of that line.  A complete line
    that does not parse raises, as in
    :func:`~repro.trace.recorder.read_trace`: skipping it would leave
    every later delta applied to the wrong cells.

    The generator ends when ``stop()`` returns true *and* every
    complete line written so far has been yielded — so a consumer that
    flips ``stop`` on the terminal run status still receives the final
    rounds.  With no ``stop`` predicate it follows forever (callers
    must close it).
    """
    decoder = TraceDecoder()
    position = 0
    decoded = -1  # the last round decoded
    while True:
        done = stop() if stop is not None else False
        grew = False
        if os.path.exists(path):
            with open(path, "rb") as fh:
                fh.seek(position)
                chunk = fh.read()
            end = chunk.rfind(b"\n") + 1
            if end:
                grew = True
                position += end
                for raw in chunk[:end].splitlines():
                    if not raw.strip():
                        continue
                    obj = json.loads(raw)
                    if obj.get("type") != "round" or obj["round"] <= decoded:
                        continue
                    row = decoder.decode(obj)
                    decoded = row.round_index
                    if decoded >= start_round:
                        yield row
        if done and not grew:
            return
        if not grew:
            time.sleep(poll_interval)
