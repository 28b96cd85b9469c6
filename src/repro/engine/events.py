"""Structured event log for simulations.

Controllers emit events (merges, run starts, run terminations, folds, ...)
that the engine timestamps with the round index.  The log powers the
progress-pair instrumentation (paper Section 4), the trace recorder, and the
pipelining figures.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Mapping


@dataclass(frozen=True)
class Event:
    """One simulation event.

    ``kind`` is a short string tag (``"merge"``, ``"run_start"``,
    ``"run_stop"``, ``"fold"``, and under the SSYNC schedulers
    ``"activation"``, ``"fault"``, ``"connectivity_violation"`` — see
    docs/schedulers.md); ``data`` carries kind-specific fields.
    """

    round_index: int
    kind: str
    data: Mapping[str, Any] = field(default_factory=dict)


class EventLog:
    """Append-only event collection with simple filtering."""

    def __init__(self) -> None:
        self._events: List[Event] = []

    def emit(self, round_index: int, kind: str, **data: Any) -> None:
        """Record one event."""
        self._events.append(Event(round_index, kind, dict(data)))

    def extend(self, events: Iterator[Event] | List[Event]) -> None:
        self._events.extend(events)

    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self) -> Iterator[Event]:
        return iter(self._events)

    def of_kind(self, kind: str) -> List[Event]:
        """All events with the given tag, in round order."""
        return [e for e in self._events if e.kind == kind]

    def counts(self) -> Dict[str, int]:
        """Event count per kind."""
        out: Dict[str, int] = {}
        for e in self._events:
            out[e.kind] = out.get(e.kind, 0) + 1
        return out

    def rounds_with(self, kind: str) -> List[int]:
        """Sorted distinct round indices at which ``kind`` occurred."""
        return sorted({e.round_index for e in self._events if e.kind == kind})


class NullEventLog(EventLog):
    """An event log that drops every event: the sink for probe
    controllers whose events nobody reads (the explorer's branches)."""

    def emit(self, round_index: int, kind: str, **data: Any) -> None:
        """Drop the event."""
