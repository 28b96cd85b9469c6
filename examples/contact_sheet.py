#!/usr/bin/env python3
"""Export an SVG contact sheet of a gathering (one panel per sampled round).

Run:  python examples/contact_sheet.py [out.svg]
"""

import sys

from repro import SwarmState, ring
from repro.core import GatherOnGrid
from repro.engine import RoundEngine, run_engine
from repro.viz import FrameRecorder


def main() -> None:
    out = sys.argv[1] if len(sys.argv) > 1 else "gathering_contact_sheet.svg"
    cells = ring(18)
    recorder = FrameRecorder(every=8, max_frames=12)
    engine = RoundEngine(SwarmState(cells), GatherOnGrid())
    result = run_engine(engine, on_round=recorder)
    assert result.gathered
    recorder.to_svg(columns=4).save(out)
    print(
        f"gathered {result.robots_initial} robots in {result.rounds} rounds; "
        f"wrote {len(recorder.frames)} panels to {out}"
    )


if __name__ == "__main__":
    main()
