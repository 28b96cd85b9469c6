"""The benchmark's four workloads.

Each workload builds its inputs from the seed in :meth:`setup` (timed as
set-up, together with one small warm-up operation), lists the operations
of one pass in :meth:`ops`, runs one operation in :meth:`run`, and checks
the operation's output in :meth:`check`.  An operation is one call into
the public API: a whole ``simulate()`` gather, or one
``run_certification()`` sweep.
"""

from __future__ import annotations

import hashlib
import io
import random
import time
from dataclasses import dataclass, field
from math import isqrt
from typing import Any, Callable, Dict, List, Optional, Tuple

from spans import patch, unpatch

Cell = Tuple[int, int]


@dataclass
class Outcome:
    """What one operation did, as the benchmark measures and checks it."""

    label: str
    wall_s: float
    #: Simulated rounds (the explorer: explored edges, each one SSYNC
    #: round replayed from a stored state).
    rounds: int = 0
    #: Swarm states produced: one per round of a gather, one per new
    #: DAG node of the explorer.
    states: int = 0
    #: Per-round host latencies, ms.
    round_ms: List[float] = field(default_factory=list)
    #: Per-gather wall times, ms (the explorer: per certified shape).
    gather_ms: List[float] = field(default_factory=list)
    trace_bytes: int = 0
    #: Output compared between traced and untraced runs.
    digest: Tuple = ()
    #: Kept for the workload's check only.
    detail: Any = None
    error: Optional[str] = None


def _translate(cells, offset: Cell) -> List[Cell]:
    dx, dy = offset
    return [(x + dx, y + dy) for x, y in cells]


def _seeded_offset(seed: int) -> Cell:
    """A seeded translation that keeps every coordinate at six digits:
    outside CPython's small-int cache and of one JSON width, so memory
    and trace bytes do not depend on the seed."""
    rng = random.Random(seed)
    return (rng.randint(100_000, 800_000), rng.randint(100_000, 800_000))


#: Measured seconds between two calibrations of :class:`Clock`.
CAL_EVERY_S = 1.0


def calibration_loop() -> float:
    """Seconds taken by a fixed piece of pure-Python work shaped like the
    simulator's (tuple cells in sets and dicts, neighbour lookups)."""
    start = time.perf_counter()
    cells = set()
    degree = {}
    for i in range(6000):
        cell = (i % 61, i // 61)
        cells.add(cell)
        degree[cell] = sum(
            (cell[0] + dx, cell[1] + dy) in cells
            for dx, dy in ((1, 0), (-1, 0), (0, 1), (0, -1))
        )
    sorted(degree.items())
    return time.perf_counter() - start


class Clock:
    """Host seconds, paused while the machine's speed is sampled.

    Every ``CAL_EVERY_S`` of measured time the clock stops, times
    :func:`calibration_loop` (best of three) into :attr:`samples`, and
    resumes; the calibration itself is never counted.
    ``calibrate=False`` never samples (the traced run)."""

    def __init__(self, calibrate: bool = True) -> None:
        self.calibrate = calibrate
        self.samples: List[float] = []
        self.paused = 0.0
        self.due = time.perf_counter()

    def __call__(self) -> float:
        host = time.perf_counter()
        now = host - self.paused
        if self.calibrate and host >= self.due:
            self.samples.append(min(calibration_loop() for _ in range(3)))
            resumed = time.perf_counter()
            self.paused += resumed - host
            self.due = resumed + CAL_EVERY_S
        return now


def _gaps_ms(start: float, stamps: List[float]) -> List[float]:
    out, prev = [], start
    for t in stamps:
        out.append((t - prev) * 1e3)
        prev = t
    return out


def _gather(api, clock: Clock, label: str, cells, **kwargs) -> Outcome:
    """One ``simulate()`` call with a minimal ``on_round`` stamp hook.

    Round latencies are the gaps between consecutive hook calls, the
    first measured from the ``simulate()`` call itself."""
    stamps: List[float] = []

    def stamp(_round, _state, append=stamps.append):
        append(clock())

    start = clock()
    result = api.simulate(cells, on_round=stamp, **kwargs)
    end = clock()
    final = tuple(sorted(result.final_state.cells))
    return Outcome(
        label=label,
        wall_s=end - start,
        rounds=result.rounds,
        states=result.rounds,
        round_ms=_gaps_ms(start, stamps),
        gather_ms=[(end - start) * 1e3],
        digest=(label, result.rounds, result.gathered, final),
        detail=result,
    )


class Workload:
    name = ""

    def __init__(self, clock: Clock) -> None:
        self.clock = clock

    def setup(self, seed: int) -> None:
        raise NotImplementedError

    def ops(self) -> List[Any]:
        raise NotImplementedError

    def run(self, op: Any) -> Outcome:
        raise NotImplementedError

    def check(self, op: Any, out: Outcome) -> Optional[str]:
        """``None`` if the output is right, else what is wrong."""
        raise NotImplementedError

    def verify_pass(self, outcomes: List[Outcome]) -> Optional[str]:
        """Checks that need a whole pass (run after timing ends)."""
        return None

    def describe(self) -> Dict[str, Any]:
        """The generated inputs, printed with the result."""
        return {}


# ----------------------------------------------------------------------
class ContourFsync(Workload):
    """ring_512 and spiral_1027 under FSYNC with ``simulate()`` defaults."""

    name = "contour_fsync"
    EXPECTED_ROUNDS = {"ring_512": 1392, "spiral_1027": 735}

    def setup(self, seed: int) -> None:
        from repro import api
        from repro.swarms.generators import family, ring

        self.api = api
        self.offset = _seeded_offset(seed)
        self.inputs = {
            "ring_512": _translate(ring(129), self.offset),
            "spiral_1027": _translate(family("spiral", 1000), self.offset),
        }
        warm = api.simulate(_translate(ring(9), self.offset))
        if not warm.gathered:
            raise RuntimeError("warm-up gather did not gather")

    def ops(self) -> List[Any]:
        return list(self.inputs)

    def run(self, op: str) -> Outcome:
        return _gather(self.api, self.clock, op, self.inputs[op])

    def check(self, op: str, out: Outcome) -> Optional[str]:
        result = out.detail
        if not result.gathered:
            return f"{op} did not gather"
        if result.rounds != self.EXPECTED_ROUNDS[op]:
            return (
                f"{op} took {result.rounds} rounds, "
                f"expected {self.EXPECTED_ROUNDS[op]}"
            )
        return None

    def describe(self) -> Dict[str, Any]:
        return {"offset": list(self.offset)}


# ----------------------------------------------------------------------
class MergeMix(Workload):
    """100 seeded short gathers over blobs, trees and solid rectangles."""

    name = "merge_mix"
    GATHERS = 100
    N_RANGE = (200, 3000)

    @classmethod
    def instances(cls, seed: int) -> List[Tuple[str, int, int]]:
        """``(shape, n, shape_seed)`` of every gather, from the seed.

        Sizes are stratified per shape (one jittered size per equal
        slice of the range), so every seed gets the same size mix and
        the seed varies only the shapes' random structure and order."""
        rng = random.Random(seed)
        shapes = ("random_blob", "random_tree", "solid_rectangle")
        lo, hi = cls.N_RANGE
        sizes = []
        for k in range(len(shapes)):
            m = len(range(k, cls.GATHERS, len(shapes)))
            row = [
                lo + int((j + rng.random()) * (hi - lo) / m) for j in range(m)
            ]
            rng.shuffle(row)
            sizes.append(row)
        return [
            (shapes[i % 3], sizes[i % 3][i // 3], rng.getrandbits(31))
            for i in range(cls.GATHERS)
        ]

    @staticmethod
    def cells(shape: str, n: int, shape_seed: int) -> List[Cell]:
        from repro.swarms import generators

        if shape == "solid_rectangle":
            rng = random.Random(shape_seed)
            side = isqrt(n)
            width = rng.randint(side * 3 // 4, side * 4 // 3)
            return generators.solid_rectangle(width, max(2, n // width))
        return getattr(generators, shape)(n, shape_seed)

    def setup(self, seed: int) -> None:
        from repro import api
        from repro.engine.termination import default_round_budget

        self.api = api
        self.budget = default_round_budget
        self.specs = self.instances(seed)
        self.inputs = [self.cells(*spec) for spec in self.specs]
        warm = api.simulate(self.cells("random_blob", 60, seed))
        if not warm.gathered:
            raise RuntimeError("warm-up gather did not gather")

    def ops(self) -> List[Any]:
        return list(range(len(self.inputs)))

    def run(self, op: int) -> Outcome:
        shape, n, _ = self.specs[op]
        return _gather(
            self.api, self.clock, f"{op}:{shape}_{n}", self.inputs[op]
        )

    def check(self, op: int, out: Outcome) -> Optional[str]:
        result = out.detail
        budget = self.budget(len(self.inputs[op]))
        if not result.gathered:
            return f"gather {out.label} did not gather"
        if result.rounds > budget:
            return f"gather {out.label} took {result.rounds} > {budget} rounds"
        return None

    def describe(self) -> Dict[str, Any]:
        return {
            "gathers": len(self.specs),
            "robots": sum(len(c) for c in self.inputs),
            "instances_sha256": hashlib.sha256(
                repr(self.specs).encode()
            ).hexdigest(),
        }


# ----------------------------------------------------------------------
class ContourSsyncTraced(Workload):
    """ring_512 under SSYNC p=1 and async-lcm staleness 0, each writing a
    JSONL trace into an in-memory buffer."""

    name = "contour_ssync_traced"
    ROUNDS = 1392
    SCHEDULERS = {
        "ssync": {"scheduler": "ssync", "activation_p": 1.0},
        "async-lcm": {
            "scheduler": "async-lcm", "staleness": 0, "activation_p": 1.0,
        },
    }

    def setup(self, seed: int) -> None:
        from repro import api
        from repro.swarms.generators import ring
        from repro.trace.recorder import read_trace

        self.api = api
        self.read_trace = read_trace
        self.offset = _seeded_offset(seed)
        self.cells = _translate(ring(129), self.offset)
        for kwargs in self.SCHEDULERS.values():
            warm = api.simulate(
                _translate(ring(9), self.offset), trace=io.StringIO(), **kwargs
            )
            if not warm.gathered:
                raise RuntimeError("warm-up gather did not gather")
        self._fsync_final: Optional[Tuple[Cell, ...]] = None
        self._traces: Dict[str, str] = {}

    def ops(self) -> List[Any]:
        return list(self.SCHEDULERS)

    def run(self, op: str) -> Outcome:
        buf = io.StringIO()
        out = _gather(
            self.api, self.clock, op, self.cells, trace=buf,
            **self.SCHEDULERS[op],
        )
        text = buf.getvalue()
        data = text.encode()
        out.trace_bytes = len(data)
        out.digest += (out.trace_bytes, hashlib.sha256(data).hexdigest())
        # Keep one trace per scheduler for the read_trace check.
        self._traces.setdefault(op, text)
        return out

    def check(self, op: str, out: Outcome) -> Optional[str]:
        result = out.detail
        if not result.gathered or result.rounds != self.ROUNDS:
            return (
                f"{op}: gathered={result.gathered} after {result.rounds} "
                f"rounds, expected {self.ROUNDS}"
            )
        return None

    def verify_pass(self, outcomes: List[Outcome]) -> Optional[str]:
        if self._fsync_final is None:
            fsync = self.api.simulate(self.cells)
            self._fsync_final = tuple(sorted(fsync.final_state.cells))
        for out in outcomes:
            if not out.error and out.digest[3] != self._fsync_final:
                return f"{out.label}: final cells differ from FSYNC's"
        for op, text in self._traces.items():
            _, rows = self.read_trace(text.splitlines())
            if len(rows) != self.ROUNDS:
                return f"{op}: trace has {len(rows)} rows, expected {self.ROUNDS}"
            if tuple(sorted(rows[-1].cells)) != self._fsync_final:
                return f"{op}: last trace row differs from the final cells"
        return None

    def describe(self) -> Dict[str, Any]:
        return {"offset": list(self.offset)}


# ----------------------------------------------------------------------
class ExploreCertify(Workload):
    """Exhaustive certification of every polyomino with 3 to 5 cells."""

    name = "explore_certify"
    EXPECTED = {
        "states": [136, 4841, 40348],
        "breakable_shapes": [0, 16, 61],
    }

    def setup(self, seed: int) -> None:
        from repro.analysis import certification

        self.certification = certification
        warm = certification.run_certification(min_n=3, max_n=3)
        if not warm["overall_ok"]:
            raise RuntimeError("warm-up certification failed")

    def ops(self) -> List[Any]:
        return ["certify_3_5"]

    def run(self, op: str) -> Outcome:
        clock = self.clock
        stamps: List[float] = []
        shapes: List[Tuple[float, int]] = []

        def stamp_keys(fn: Callable) -> Callable:
            def stamped(*args, **kwargs):
                result = fn(*args, **kwargs)
                stamps.append(clock())
                return result

            return stamped

        def time_shapes(fn: Callable) -> Callable:
            def timed(*args, **kwargs):
                t0 = clock()
                record = fn(*args, **kwargs)
                shapes.append((clock() - t0, record["edges"]))
                return record

            return timed

        # Every explored edge ends in one canonical_state_key call; each
        # seed shape is one certify_shape call.
        restore = []
        for module, name, wrap in (
            ("explore.canonical", "canonical_state_key", stamp_keys),
            ("analysis.certification", "certify_shape", time_shapes),
        ):
            patched = patch(module, name, wrap)
            if patched is None:
                unpatch(restore)
                raise RuntimeError(f"repro.{module}.{name} not found")
            restore += patched
        start = clock()
        try:
            report = self.certification.run_certification(
                min_n=3, max_n=5, verify=True
            )
        finally:
            end = clock()
            unpatch(restore)
        verdicts = tuple(
            (row["n"], row["states"], row["breakable_shapes"],
             row["max_fsync_rounds"], row["min_fairness_k"], row["ok"])
            for row in report["rows"]
        )
        return Outcome(
            label=op,
            wall_s=end - start,
            rounds=sum(edges for _, edges in shapes),
            states=sum(row["states"] for row in report["rows"]),
            round_ms=_gaps_ms(start, stamps),
            gather_ms=[dt * 1e3 for dt, _ in shapes],
            digest=(op, report["overall_ok"], verdicts),
            detail=report,
        )

    def check(self, op: str, out: Outcome) -> Optional[str]:
        report = out.detail
        for key, expected in self.EXPECTED.items():
            got = [row[key] for row in report["rows"]]
            if got != expected:
                return f"{key}: {got}, expected {expected}"
        if not report["overall_ok"]:
            return "certification is not overall_ok"
        return None


WORKLOADS: Dict[str, type] = {
    w.name: w
    for w in (ContourFsync, MergeMix, ContourSsyncTraced, ExploreCertify)
}
