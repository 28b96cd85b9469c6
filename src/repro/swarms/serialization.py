"""Swarm serialization: text art and JSON.

Text art uses ``#`` for occupied and ``.`` for free cells, one row per
line, top row = highest y (as rendered by :mod:`repro.viz.ascii_art`), so
shapes in tests read the way they look.
"""

from __future__ import annotations

import json
from typing import Iterable, List

from repro.grid.geometry import Cell, bounding_box


def to_text(
    cells: Iterable[Cell], occupied: str = "#", free: str = "."
) -> str:
    """Render cells as text art (top row = max y)."""
    cell_set = set(cells)
    if not cell_set:
        return ""
    min_x, min_y, max_x, max_y = bounding_box(cell_set)
    rows = []
    for y in range(max_y, min_y - 1, -1):
        rows.append(
            "".join(
                occupied if (x, y) in cell_set else free
                for x in range(min_x, max_x + 1)
            )
        )
    return "\n".join(rows)


def from_text(art: str, occupied: str = "#") -> List[Cell]:
    """Parse text art back into cells (inverse of :func:`to_text` up to
    translation: the bottom-left of the drawing becomes (0, 0))."""
    lines = [ln for ln in art.splitlines() if ln.strip()]
    cells: List[Cell] = []
    height = len(lines)
    for row, ln in enumerate(lines):
        y = height - 1 - row
        for x, ch in enumerate(ln):
            if ch == occupied:
                cells.append((x, y))
    return sorted(cells)


def to_json(cells: Iterable[Cell]) -> str:
    """JSON-encode a swarm as a sorted list of [x, y] pairs."""
    return json.dumps(sorted(set(cells)))


def from_json(payload: str) -> List[Cell]:
    """Decode a swarm from :func:`to_json` output."""
    data = json.loads(payload)
    return sorted((int(x), int(y)) for x, y in data)
