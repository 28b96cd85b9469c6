"""Frame capture for gathering animations.

Plug a :class:`FrameRecorder` into the engine's ``on_round`` hook to capture
ASCII or SVG frames; examples use it to render the gathering as a terminal
animation or an SVG film strip.
"""

from __future__ import annotations

from typing import List, Optional

from repro.grid.occupancy import SwarmState
from repro.viz.ascii_art import render


class FrameRecorder:
    """Collects per-round snapshots of the swarm.

    ``every`` subsamples rounds; ``max_frames`` caps memory for long runs
    (oldest frames are kept — the interesting dynamics are early).
    """

    def __init__(self, every: int = 1, max_frames: Optional[int] = None):
        if every < 1:
            raise ValueError("every must be >= 1")
        self.every = every
        self.max_frames = max_frames
        self.frames: List[frozenset] = []
        self.rounds: List[int] = []

    def __call__(self, round_index: int, state: SwarmState) -> None:
        if round_index % self.every:
            return
        if self.max_frames is not None and len(self.frames) >= self.max_frames:
            return
        self.frames.append(state.frozen())
        self.rounds.append(round_index)

    def film_strip(self, limit: int = 10) -> str:
        """First ``limit`` frames joined vertically with round labels."""
        parts = []
        for rnd, frame in list(zip(self.rounds, self.frames))[:limit]:
            parts.append(f"--- round {rnd} ({len(frame)} robots) ---")
            parts.append(render(frame))
        return "\n".join(parts)

    def to_svg(
        self, *, cell_px: float = 8.0, columns: int = 4, limit: int = 12
    ):
        """Render up to ``limit`` frames as one SVG contact sheet.

        Frames are laid out in a grid of ``columns`` panels, each labeled
        with its round number; returns an :class:`repro.viz.svg.SvgCanvas`.
        """
        from repro.grid.geometry import bounding_box
        from repro.viz.svg import SvgCanvas

        frames = list(zip(self.rounds, self.frames))[:limit]
        if not frames:
            raise ValueError("no frames recorded")
        # common bounding box so panels align
        every = set().union(*(f for _, f in frames))
        min_x, min_y, max_x, max_y = bounding_box(every)
        fw = (max_x - min_x + 1) * cell_px + 20
        fh = (max_y - min_y + 1) * cell_px + 30
        rows = (len(frames) + columns - 1) // columns
        canvas = SvgCanvas(fw * min(columns, len(frames)), fh * rows)
        for idx, (rnd, frame) in enumerate(frames):
            ox = (idx % columns) * fw + 10
            oy = (idx // columns) * fh + 20
            canvas.text(ox, oy - 6, f"round {rnd} ({len(frame)})", size=9)
            for (x, y) in frame:
                canvas.rect(
                    ox + (x - min_x) * cell_px,
                    oy + (max_y - y) * cell_px,
                    cell_px - 1,
                    cell_px - 1,
                    fill="#333",
                )
        return canvas
