"""Live tailing of JSONL traces across a process boundary.

The serving layer (:mod:`repro.service`) runs simulations in worker
*processes* that flush one trace row per round; the server process
turns those rows into Server-Sent Events by following the file as it
grows.  :func:`follow_rounds` is that follower: a generator yielding
:class:`~repro.trace.recorder.TraceRow` objects in round order, safe
against partially written lines (only newline-terminated lines are
parsed), against a resumed writer (no round is yielded twice) and
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

from repro.trace.recorder import TraceRow


def _parse_row(line: str) -> Optional[TraceRow]:
    try:
        obj = json.loads(line)
    except ValueError:
        return None
    if obj.get("type") != "round":
        return None
    return TraceRow(
        round_index=int(obj["round"]),
        cells=tuple((int(x), int(y)) for x, y in obj["cells"]),
        checkpoint=obj.get("checkpoint"),
    )


def follow_rounds(
    path: str,
    *,
    poll_interval: float = 0.05,
    stop: Optional[Callable[[], bool]] = None,
    start_round: int = 0,
) -> Iterator[TraceRow]:
    """Yield trace rows from ``path`` as they are appended.

    Header and unknown rows are skipped; rows with
    ``round_index < start_round`` are skipped (resume support: a
    re-attached stream can ask only for the tail).  Round indexes only
    increase: a row whose round was already yielded is skipped, so a
    writer that resumes a killed run never shows a round twice.  The
    follower's file position only advances past complete lines, so a
    resumed writer that cuts a torn final line off the file and
    rewrites it is read from the start of that line.

    The generator ends when ``stop()`` returns true *and* every
    complete line written so far has been yielded — so a consumer that
    flips ``stop`` on the terminal run status still receives the final
    rounds.  With no ``stop`` predicate it follows forever (callers
    must close it).
    """
    position = 0
    next_round = start_round
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
                    row = _parse_row(raw.decode("utf-8"))
                    if row is not None and row.round_index >= next_round:
                        next_round = row.round_index + 1
                        yield row
        if done and not grew:
            return
        if not grew:
            time.sleep(poll_interval)
