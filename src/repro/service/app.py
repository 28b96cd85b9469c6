"""The transport-agnostic service application.

Everything HTTP-shaped but socket-free lives here: a
:class:`Request` / :class:`Response` pair, a tiny :class:`Router`
(literal and ``<param>`` path segments), submit-payload validation,
and :class:`ServiceApp` — the object that owns the registry, the
worker dispatcher, and one handler method per endpoint.

The stdlib server (:mod:`repro.service.server`) is a thin adapter
over ``ServiceApp.handle``; tests drive ``handle`` directly, and a
future ASGI adapter would be another thin shell, not a rewrite.

Endpoints (full table in ``docs/service.md``)::

    GET  /                      dashboard (single-file HTML)
    GET  /health                liveness + run/queue counts
    GET  /metrics               service counters (JSON)
    GET  /runs                  all run records
    POST /runs                  submit a scenario -> 202 + run record
    GET  /runs/<id>             one run record
    GET  /runs/<id>/events      SSE round stream (text/event-stream)
    GET  /runs/<id>/frame.svg   one round rendered server-side
    GET  /runs/<id>/trace       the raw JSONL trace
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    Any,
    Callable,
    Dict,
    Iterator,
    List,
    Optional,
    Tuple,
    Union,
)

from repro.api import SCHEDULERS, STRATEGIES
from repro.core.config import AlgorithmConfig
from repro.service.dashboard import DASHBOARD_HTML
from repro.service.records import RunRegistry
from repro.service.runner import scenario_from_params
from repro.service.sse import StreamHub, run_event_stream
from repro.service.workers import ServiceWorkers
from repro.trace.recorder import TraceRow, read_trace
from repro.viz.svg import frame_svg

#: Keys a submit payload may carry (everything else is a loud 400).
SUBMIT_KEYS = frozenset(
    {
        "family",
        "n",
        "seed",
        "payload",
        "strategy",
        "scheduler",
        "max_rounds",
        "check_connectivity",
        "config",
        "options",
    }
)


# ----------------------------------------------------------------------
# Request / Response / Router
# ----------------------------------------------------------------------
@dataclass
class Request:
    """One HTTP request, already parsed by the transport."""

    method: str
    path: str
    query: Dict[str, str] = field(default_factory=dict)
    body: bytes = b""
    params: Dict[str, str] = field(default_factory=dict)

    def json(self) -> Any:
        if not self.body:
            raise ValueError("request body is empty (expected JSON)")
        try:
            return json.loads(self.body.decode("utf-8"))
        except ValueError as exc:
            raise ValueError(f"invalid JSON body: {exc}") from None


@dataclass
class Response:
    """One HTTP response: a body *or* a byte-chunk stream (SSE)."""

    status: int = 200
    content_type: str = "application/json"
    body: bytes = b""
    stream: Optional[Iterator[bytes]] = None
    headers: Dict[str, str] = field(default_factory=dict)

    @classmethod
    def of_json(cls, data: Any, status: int = 200) -> "Response":
        return cls(
            status=status,
            body=(json.dumps(data) + "\n").encode("utf-8"),
        )

    @classmethod
    def error(cls, status: int, message: str) -> "Response":
        return cls.of_json({"error": message}, status=status)

    def json(self) -> Any:
        """Parse the body back (test convenience)."""
        return json.loads(self.body.decode("utf-8"))


Handler = Callable[[Request], Response]


class Router:
    """Method + path-pattern dispatch; ``<name>`` captures a segment."""

    def __init__(self) -> None:
        self._routes: List[Tuple[str, Tuple[str, ...], Handler]] = []

    def add(self, method: str, pattern: str, handler: Handler) -> None:
        segments = tuple(pattern.strip("/").split("/"))
        self._routes.append((method.upper(), segments, handler))

    @staticmethod
    def _match(
        segments: Tuple[str, ...], path: str
    ) -> Optional[Dict[str, str]]:
        parts = tuple(path.strip("/").split("/"))
        if len(parts) != len(segments):
            return None
        params: Dict[str, str] = {}
        for seg, part in zip(segments, parts):
            if seg.startswith("<") and seg.endswith(">"):
                if not part:
                    return None
                params[seg[1:-1]] = part
            elif seg != part:
                return None
        return params

    def dispatch(self, request: Request) -> Response:
        path_matched = False
        for method, segments, handler in self._routes:
            params = self._match(segments, request.path)
            if params is None:
                continue
            path_matched = True
            if method != request.method.upper():
                continue
            request.params = params
            return handler(request)
        if path_matched:
            return Response.error(
                405, f"method {request.method} not allowed here"
            )
        return Response.error(404, f"no such path: {request.path}")


# ----------------------------------------------------------------------
# Submit-payload validation
# ----------------------------------------------------------------------
def validate_params(data: Any) -> Dict[str, Any]:
    """Check and normalize a submit payload; raises ``ValueError``.

    Validation happens at the door, not in the worker: a payload that
    passes here will reach ``simulate()`` with known-good strategy /
    scheduler / scenario / config shapes, so the only failures left in
    the worker are simulation-level ones (recorded on the run).
    """
    if not isinstance(data, dict):
        raise ValueError("submit payload must be a JSON object")
    unknown = set(data) - SUBMIT_KEYS
    if unknown:
        raise ValueError(
            f"unknown submit keys {sorted(unknown)}; "
            f"accepted: {sorted(SUBMIT_KEYS)}"
        )
    params = {k: v for k, v in data.items() if v is not None}

    strategy = params.get("strategy", "grid")
    if strategy not in STRATEGIES:
        raise ValueError(
            f"unknown strategy {strategy!r}; "
            f"available: {sorted(STRATEGIES)}"
        )
    strat = STRATEGIES[strategy]
    scheduler = params.get("scheduler")
    if scheduler is not None:
        if scheduler not in SCHEDULERS:
            raise ValueError(
                f"unknown scheduler {scheduler!r}; "
                f"available: {sorted(SCHEDULERS)}"
            )
        if scheduler not in strat.schedulers:
            raise ValueError(
                f"strategy {strategy!r} supports schedulers "
                f"{strat.schedulers}, not {scheduler!r}"
            )

    for key in ("n", "seed", "max_rounds"):
        if key in params and not isinstance(params[key], int):
            raise ValueError(f"{key} must be an integer")
    if "n" in params and params["n"] < 1:
        raise ValueError("n must be >= 1")
    if "max_rounds" in params and params["max_rounds"] < 1:
        raise ValueError("max_rounds must be >= 1")
    if "check_connectivity" in params and not isinstance(
        params["check_connectivity"], bool
    ):
        raise ValueError("check_connectivity must be a boolean")
    for key in ("config", "options"):
        if key in params and not isinstance(params[key], dict):
            raise ValueError(f"{key} must be a JSON object")
    if "payload" in params and not isinstance(
        params["payload"], list
    ):
        raise ValueError("payload must be a list of points")

    if "config" in params:
        try:
            AlgorithmConfig.from_dict(params["config"])
        except TypeError as exc:
            raise ValueError(f"bad config: {exc}") from None
    # Scenario construction validates the family/n/payload shape.
    scenario_from_params(params)
    return params


# ----------------------------------------------------------------------
# The application
# ----------------------------------------------------------------------
class ServiceApp:
    """The service behind every transport: registry + workers + routes.

    ``inline_workers=True`` executes runs synchronously on submit (no
    pool) — for tests and throwaway servers.  Otherwise runs execute
    on a persistent worker-process pool of ``workers`` processes.
    """

    def __init__(
        self,
        data_dir: Union[str, Path],
        *,
        workers: Optional[int] = None,
        checkpoint_every: int = 50,
        inline_workers: bool = False,
        poll_interval: float = 0.05,
    ) -> None:
        self.registry = RunRegistry(data_dir)
        self.hub = StreamHub()
        self.workers = ServiceWorkers(
            self.registry,
            workers=workers,
            checkpoint_every=checkpoint_every,
            poll_interval=poll_interval,
            inline=inline_workers,
        )
        self._poll_interval = poll_interval
        self._started_at = time.time()
        self._requests = 0
        self.router = Router()
        self.router.add("GET", "/", self._dashboard)
        self.router.add("GET", "/health", self._health)
        self.router.add("GET", "/metrics", self._metrics)
        self.router.add("GET", "/runs", self._list_runs)
        self.router.add("POST", "/runs", self._submit)
        self.router.add("GET", "/runs/<run_id>", self._get_run)
        self.router.add(
            "GET", "/runs/<run_id>/events", self._events
        )
        self.router.add(
            "GET", "/runs/<run_id>/frame.svg", self._frame
        )
        self.router.add("GET", "/runs/<run_id>/trace", self._trace)

    # -- lifecycle -----------------------------------------------------
    def start(self) -> List[str]:
        """Recover interrupted runs, start the dispatcher; returns the
        requeued run ids."""
        requeued = self.workers.recover()
        self.workers.start()
        return requeued

    def close(self) -> None:
        self.workers.close()

    def __enter__(self) -> "ServiceApp":
        self.start()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False

    # -- dispatch ------------------------------------------------------
    def handle(self, request: Request) -> Response:
        """Route one request; unexpected errors become JSON 500s."""
        self._requests += 1
        try:
            return self.router.dispatch(request)
        except Exception as exc:
            return Response.error(
                500, f"{type(exc).__name__}: {exc}"
            )

    # -- endpoints -----------------------------------------------------
    def _dashboard(self, request: Request) -> Response:
        return Response(
            content_type="text/html; charset=utf-8",
            body=DASHBOARD_HTML.encode("utf-8"),
        )

    def _health(self, request: Request) -> Response:
        return Response.of_json(
            {
                "status": "ok",
                "runs": self.registry.counts(),
                "queue": {
                    "pending": self.workers.pending(),
                    "dispatched": self.workers.dispatched(),
                },
                "workers": self.workers.worker_count,
                "uptime_s": round(time.time() - self._started_at, 3),
            }
        )

    def _metrics(self, request: Request) -> Response:
        return Response.of_json(
            {
                "service": "repro",
                "http_requests_total": self._requests,
                "runs": self.registry.counts(),
                "sse": self.hub.snapshot(),
                "uptime_s": round(time.time() - self._started_at, 3),
            }
        )

    def _list_runs(self, request: Request) -> Response:
        return Response.of_json(
            {
                "runs": [
                    record.to_dict()
                    for record in self.registry.records()
                ]
            }
        )

    def _submit(self, request: Request) -> Response:
        try:
            params = validate_params(request.json())
        except ValueError as exc:
            return Response.error(400, str(exc))
        record = self.registry.create(params)
        self.workers.enqueue(record.run_id)
        run_id = record.run_id
        return Response.of_json(
            {
                "id": run_id,
                "status": self.registry.get(run_id).status,
                "links": {
                    "self": f"/runs/{run_id}",
                    "events": f"/runs/{run_id}/events",
                    "frame": f"/runs/{run_id}/frame.svg",
                    "trace": f"/runs/{run_id}/trace",
                },
            },
            status=202,
        )

    def _get_run(self, request: Request) -> Response:
        try:
            record = self.registry.get(request.params["run_id"])
        except KeyError as exc:
            return Response.error(404, str(exc.args[0]))
        return Response.of_json(record.to_dict())

    def _events(self, request: Request) -> Response:
        run_id = request.params["run_id"]
        try:
            self.registry.get(run_id)
        except KeyError as exc:
            return Response.error(404, str(exc.args[0]))
        start_round = 0
        if "start_round" in request.query:
            start_round = int(request.query["start_round"])
        return Response(
            content_type="text/event-stream",
            headers={"Cache-Control": "no-store"},
            stream=run_event_stream(
                self.registry,
                run_id,
                self.hub,
                poll_interval=self._poll_interval,
                start_round=start_round,
            ),
        )

    def _frame(self, request: Request) -> Response:
        run_id = request.params["run_id"]
        try:
            self.registry.get(run_id)
        except KeyError as exc:
            return Response.error(404, str(exc.args[0]))
        trace_path = self.registry.trace_path(run_id)
        if not trace_path.exists():
            return Response.error(
                404, f"run {run_id} has no trace yet"
            )
        with trace_path.open() as fh:
            meta, rows = read_trace(fh)
        initial = [
            (int(x), int(y))
            for x, y in meta.get("initial_cells", [])
        ]
        which = request.query.get("round", "latest")
        try:
            canvas = self._render_frame(which, initial, rows)
        except ValueError as exc:
            return Response.error(400, str(exc))
        if canvas is None:
            return Response.error(
                404, f"run {run_id} has no frame for round={which}"
            )
        return Response(
            content_type="image/svg+xml",
            body=canvas.to_string().encode("utf-8"),
        )

    @staticmethod
    def _render_frame(
        which: str,
        initial: List[Tuple[int, int]],
        rows: List[TraceRow],
    ) -> Optional[Any]:
        """Pick (current, previous) cell sets and render one frame.

        ``round=initial`` (or 0 rounds recorded) renders the initial
        configuration; ``round=latest`` the newest recorded round;
        ``round=<k>`` round ``k`` with the cells newly occupied since
        round ``k-1`` highlighted.
        """
        if which == "initial":
            if not initial:
                return None
            return frame_svg(initial, label="round 0 (initial)")
        if which == "latest":
            if not rows:
                if not initial:
                    return None
                return frame_svg(initial, label="round 0 (initial)")
            index = len(rows) - 1
        else:
            try:
                wanted = int(which)
            except ValueError:
                raise ValueError(
                    f"round must be 'initial', 'latest', or an "
                    f"integer, got {which!r}"
                ) from None
            index = next(
                (
                    i
                    for i, row in enumerate(rows)
                    if row.round_index == wanted
                ),
                None,
            )
            if index is None:
                return None
        row = rows[index]
        previous = (
            rows[index - 1].cells if index > 0 else initial or None
        )
        return frame_svg(
            row.cells,
            previous,
            label=f"round {row.round_index + 1}"
            f" ({len(row.cells)} robots)",
        )

    def _trace(self, request: Request) -> Response:
        run_id = request.params["run_id"]
        try:
            self.registry.get(run_id)
        except KeyError as exc:
            return Response.error(404, str(exc.args[0]))
        trace_path = self.registry.trace_path(run_id)
        if not trace_path.exists():
            return Response.error(
                404, f"run {run_id} has no trace yet"
            )
        return Response(
            content_type="application/x-ndjson",
            body=trace_path.read_bytes(),
        )
