"""Outside-in span tracing of ``repro`` layers for the benchmark.

:class:`Tracer` replaces public functions and methods of the ``repro``
package with thin wrappers that record one span per call (name, start,
end, parent) into flat in-memory arrays.  Module sources stay unchanged:
a class method is wrapped on the class that defines it, and a module
function is wrapped at its defining module *and* at every ``repro``
module that imported it by name.  :meth:`Tracer.uninstall` puts every
original object back and verifies that no wrapper is left anywhere.

Self time is a span's duration minus the time of its direct children;
busy time is the full duration, counted once per outermost call of a
name so that re-entrant calls are not double counted.
"""

from __future__ import annotations

import gzip
import importlib
import sys
import time
from array import array
from typing import Callable, Dict, List, Optional, Tuple

#: ``(module, qualified name)`` of every traced layer, in pipeline order.
#: ``module`` is relative to ``repro``; the metric prefix is
#: ``<module>.<qualified name>``.
LAYERS: Tuple[Tuple[str, str], ...] = (
    ("api", "simulate"),
    ("analysis.certification", "run_certification"),
    ("engine.scheduler", "FsyncEngine.step"),
    ("engine.ssync_scheduler", "SsyncEngine.step"),
    ("engine.async_lcm", "AsyncLcmEngine.step"),
    ("core.algorithm", "GatherOnGrid.plan_round"),
    ("core.algorithm", "GatherOnGrid.notify_applied"),
    ("core.patterns", "MergeCache.update"),
    ("core.patterns", "MergeCache.rebuild"),
    ("core.patterns", "MergeCache.plan"),
    ("grid.ring", "RingSet.update"),
    ("grid.ring", "RingSet.rebuild"),
    ("grid.ring", "RingSet.from_cells"),
    ("core.quasiline", "StartSiteIndex.sites"),
    ("core.quasiline", "run_start_sites"),
    ("core.runs", "RunManager.locate"),
    ("core.runs", "RunManager.start_runs"),
    ("core.runs", "RunManager.plan"),
    ("core.runs", "RunManager.finalize"),
    ("grid.occupancy", "SwarmState.apply_moves"),
    ("grid.connectivity", "locally_connected_after"),
    ("grid.connectivity", "connected_components"),
    ("grid.connectivity", "is_connected"),
    ("engine.events", "EventLog.emit"),
    ("engine.metrics", "MetricsLog.record"),
    ("trace.recorder", "TraceRecorder.__call__"),
    ("core.patterns", "plan_merges"),
    ("explore.canonical", "canonical_state_key"),
    ("trace.replay", "restore_controller"),
    ("trace.replay", "controller_checkpoint"),
    ("explore.witness", "verify_witness"),
)

LAYER_NAMES: Tuple[str, ...] = tuple(f"{m}.{q}" for m, q in LAYERS)

#: Called as ``observe(args, result)`` after a wrapped call returns.
Observer = Callable[[tuple, object], None]


def _repro_modules() -> List[object]:
    return [
        mod
        for name, mod in list(sys.modules.items())
        if mod is not None and (name == "repro" or name.startswith("repro."))
    ]


def patch_function(
    module: str, name: str, make_wrapper: Callable[[Callable], Callable]
) -> Optional[List[Tuple[object, str, object]]]:
    """Replace the module function ``repro.<module>.<name>`` everywhere
    it is bound by name in a loaded ``repro`` module.

    Returns the ``(namespace, attribute, original)`` restore list, or
    ``None`` when the function does not exist."""
    try:
        mod = importlib.import_module(f"repro.{module}")
    except ImportError:
        return None
    original = getattr(mod, name, None)
    if original is None:
        return None
    wrapper = make_wrapper(original)
    restore = []
    for other in _repro_modules():
        for attr, value in list(vars(other).items()):
            if value is original:
                setattr(other, attr, wrapper)
                restore.append((other, attr, original))
    return restore


def patch_method(
    module: str, qualname: str, make_wrapper: Callable[[Callable], Callable]
) -> Optional[List[Tuple[object, str, object]]]:
    """Replace ``Class.method`` of ``repro.<module>`` on the defining
    class (plain, class and static methods alike)."""
    cls_name, meth = qualname.split(".")
    try:
        mod = importlib.import_module(f"repro.{module}")
    except ImportError:
        return None
    cls = getattr(mod, cls_name, None)
    if cls is None or meth not in vars(cls):
        return None
    original = vars(cls)[meth]
    if isinstance(original, (classmethod, staticmethod)):
        patched = type(original)(make_wrapper(original.__func__))
    else:
        patched = make_wrapper(original)
    setattr(cls, meth, patched)
    return [(cls, meth, original)]


def patch(
    module: str, qualname: str, make_wrapper: Callable[[Callable], Callable]
) -> Optional[List[Tuple[object, str, object]]]:
    if "." in qualname:
        return patch_method(module, qualname, make_wrapper)
    return patch_function(module, qualname, make_wrapper)


def unpatch(restore: List[Tuple[object, str, object]]) -> None:
    for namespace, attr, original in reversed(restore):
        setattr(namespace, attr, original)


class Tracer:
    """Span recorder over :data:`LAYERS`; use as a context manager."""

    def __init__(self, observers: Optional[Dict[str, Observer]] = None):
        self.observers = observers or {}
        self.names: List[str] = []
        self.name_ids: Dict[str, int] = {}
        self.reset()
        self._restore: List[Tuple[object, str, object]] = []
        self._wrappers: List[Callable] = []

    def reset(self) -> None:
        """Drop recorded spans (wrappers stay installed)."""
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack: List[int] = []

    # ------------------------------------------------------------------
    def _make_wrapper(self, label: str) -> Callable[[Callable], Callable]:
        name_id = self.name_ids.setdefault(label, len(self.names))
        if name_id == len(self.names):
            self.names.append(label)
        observe = self.observers.get(label)
        tracer = self
        clock = time.perf_counter

        def make(fn: Callable) -> Callable:
            def traced(*args, **kwargs):
                stack = tracer._stack
                idx = len(tracer.span_name)
                tracer.span_name.append(name_id)
                tracer.span_parent.append(stack[-1] if stack else -1)
                tracer.span_start.append(0.0)
                tracer.span_end.append(0.0)
                stack.append(idx)
                start = clock()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    end = clock()
                    stack.pop()
                    tracer.span_start[idx] = start
                    tracer.span_end[idx] = end
                if observe is not None:
                    observe(args, result)
                return result

            traced.__wrapped__ = fn
            traced.__name__ = getattr(fn, "__name__", label)
            traced.__qualname__ = getattr(fn, "__qualname__", label)
            tracer._wrappers.append(traced)
            return traced

        return make

    def install(self) -> "Tracer":
        for module, qualname in LAYERS:
            label = f"{module}.{qualname}"
            restore = patch(module, qualname, self._make_wrapper(label))
            # A layer missing from this source tree reports zero calls.
            self._restore.extend(restore or [])
        return self

    def uninstall(self) -> None:
        """Restore every original; raise if a wrapper is still bound."""
        unpatch(self._restore)
        self._restore = []
        wrappers = {id(w) for w in self._wrappers}
        leftovers = []
        for mod in _repro_modules():
            for attr, value in vars(mod).items():
                if id(value) in wrappers:
                    leftovers.append(f"{mod.__name__}.{attr}")
                for inner in vars(value).values() if isinstance(value, type) else ():
                    func = getattr(inner, "__func__", inner)
                    if id(func) in wrappers:
                        leftovers.append(f"{mod.__name__}.{attr}")
        if leftovers:
            raise RuntimeError(f"tracing wrappers left installed: {leftovers}")

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # ------------------------------------------------------------------
    def summary(self) -> Dict[str, Dict[str, float]]:
        """Per layer: ``calls``, ``busy_ms`` (outermost calls only) and
        ``self_ms`` (duration minus direct children), over all spans
        recorded since the last :meth:`reset`."""
        n = len(self.span_name)
        names, parents = self.span_name, self.span_parent
        starts, ends = self.span_start, self.span_end
        child_time = [0.0] * n
        for i in range(n):
            p = parents[i]
            if p >= 0:
                child_time[p] += ends[i] - starts[i]
        calls = [0] * len(self.names)
        busy = [0.0] * len(self.names)
        self_t = [0.0] * len(self.names)
        for i in range(n):
            k = names[i]
            dur = ends[i] - starts[i]
            calls[k] += 1
            self_t[k] += dur - child_time[i]
            p = parents[i]
            while p >= 0 and names[p] != k:
                p = parents[p]
            if p < 0:
                busy[k] += dur
        return {
            label: {
                "calls": calls[k],
                "busy_ms": busy[k] * 1e3,
                "self_ms": self_t[k] * 1e3,
            }
            for k, label in enumerate(self.names)
        }

    def top_level_s(self) -> float:
        """Summed duration of spans without a traced parent."""
        return sum(
            self.span_end[i] - self.span_start[i]
            for i in range(len(self.span_name))
            if self.span_parent[i] < 0
        )

    def count_calls(self, label: str, outside: Optional[str] = None) -> int:
        """Calls of ``label`` not nested (at any depth) in ``outside``."""
        k = self.name_ids.get(label)
        if k is None:
            return 0
        skip = self.name_ids.get(outside, -1) if outside else -1
        total = 0
        for i in range(len(self.span_name)):
            if self.span_name[i] != k:
                continue
            p = self.span_parent[i]
            while p >= 0 and self.span_name[p] != skip:
                p = self.span_parent[p]
            if p < 0:
                total += 1
        return total

    def write(self, path: str) -> None:
        """Write the recorded spans as gzipped TSV: ``#`` lines mapping
        name ids to layer names, then ``name_id start_ns end_ns parent``
        per span, in call order (times relative to the first span; the
        parent is a span's line index among the spans, ``-1`` for top
        level)."""
        base = self.span_start[0] if len(self.span_start) else 0.0
        with gzip.open(path, "wt", compresslevel=1, encoding="utf-8") as fh:
            for k, label in enumerate(self.names):
                fh.write(f"#{k}\t{label}\n")
            fh.writelines(
                f"{name}\t{round((start - base) * 1e9)}\t"
                f"{round((end - base) * 1e9)}\t{parent}\n"
                for name, start, end, parent in zip(
                    self.span_name, self.span_start,
                    self.span_end, self.span_parent,
                )
            )
