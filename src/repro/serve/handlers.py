"""Request routing and endpoint logic of the ``repro serve`` daemon.

The transport (:mod:`repro.serve.app`) parses raw HTTP into a
:class:`Request` and writes the :class:`Response` back; everything in
between — routing, spec validation, error shaping, the streaming
generators — lives here, transport-agnostic and directly testable.

Endpoints::

    GET    /healthz             liveness + uptime
    GET    /stats               queue depth, job counts, cache/pass/pool state
    POST   /jobs                submit a design, explore, or robust spec
                                -> job id
    GET    /jobs                all known jobs (status documents)
    GET    /jobs/<id>           one job's status + progress
    GET    /jobs/<id>/result    the finished result (409 until terminal)
    GET    /jobs/<id>/stream    incremental results as JSONL (or SSE)
    POST   /jobs/<id>/cancel    request cancellation
    DELETE /jobs/<id>           alias for cancel

With ``--dispatch`` the daemon additionally coordinates remote
``repro worker`` processes (404 ``DispatchDisabled`` otherwise)::

    GET    /dispatch            work queue + worker liveness document
    POST   /dispatch/register   admit a worker -> id + lease protocol
    POST   /dispatch/claim      lease a task batch to a worker
    POST   /dispatch/complete   accept results for still-held leases
    POST   /dispatch/heartbeat  renew worker liveness + listed leases
    POST   /dispatch/deregister graceful goodbye, leases released

Every error body is typed JSON: ``{"error": {"type", "message"}}``.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field
from typing import Any, AsyncIterator, Dict, Optional

from repro.api.registry import available_usecases
from repro.api.spec import scenario_from_spec
from repro.exceptions import CamJError
from repro.explore.spec import (EXPLORATION_SPEC_SCHEMA,
                                exploration_spec_from_dict)
from repro.robust.spec import ROBUST_SPEC_SCHEMA, robust_spec_from_dict
from repro.serve.jobs import (TERMINAL_STATES, Job, JobQueue, JobState,
                              QueueClosed)

#: Largest request body the daemon accepts.
MAX_BODY_BYTES = 32 * 1024 * 1024

#: Schema tags of the daemon's own response documents.
STATS_SCHEMA = "repro.serve-stats/1"
JOB_SCHEMA = "repro.serve-job/1"


class ApiError(Exception):
    """A typed HTTP error the transport renders as a JSON body."""

    def __init__(self, status: int, error_type: str, message: str) -> None:
        super().__init__(message)
        self.status = status
        self.error_type = error_type
        self.message = message

    def to_payload(self) -> Dict[str, Any]:
        return {"error": {"type": self.error_type, "message": self.message}}


@dataclass
class Request:
    """One parsed HTTP request."""

    method: str
    path: str
    query: Dict[str, str] = field(default_factory=dict)
    headers: Dict[str, str] = field(default_factory=dict)
    body: bytes = b""
    #: Whether the connection stays open after the response.
    keep_alive: bool = False


@dataclass
class Response:
    """What a handler hands back to the transport.

    Exactly one of ``payload`` (buffered JSON) or ``stream`` (an async
    byte-chunk iterator, written incrementally) is set.
    """

    status: int = 200
    payload: Optional[Any] = None
    stream: Optional[AsyncIterator[bytes]] = None
    content_type: str = "application/json"


async def dispatch(app, request: Request) -> Response:
    """Route one request; raises :class:`ApiError` for every failure."""
    parts = [part for part in request.path.split("/") if part]
    if parts == ["healthz"]:
        _require_method(request, "GET")
        return Response(payload=handle_healthz(app))
    if parts == ["stats"]:
        _require_method(request, "GET")
        return Response(payload=handle_stats(app))
    if parts == ["jobs"]:
        if request.method == "POST":
            return await handle_submit(app, request)
        _require_method(request, "GET")
        return Response(payload=handle_list_jobs(app))
    if len(parts) >= 2 and parts[0] == "jobs":
        job = _job_or_404(app.queue, parts[1])
        if len(parts) == 2:
            if request.method == "DELETE":
                return Response(payload=handle_cancel(app, job))
            _require_method(request, "GET")
            return Response(payload=job_document(job))
        if len(parts) == 3 and parts[2] == "result":
            _require_method(request, "GET")
            return Response(payload=handle_result(app, job))
        if len(parts) == 3 and parts[2] == "cancel":
            _require_method(request, "POST")
            return Response(payload=handle_cancel(app, job))
        if len(parts) == 3 and parts[2] == "stream":
            _require_method(request, "GET")
            return stream_response(job, _stream_format(request),
                                   _stream_cursor(request))
    if parts and parts[0] == "dispatch" and len(parts) <= 2:
        return Response(payload=handle_dispatch(app, request, parts[1:]))
    raise ApiError(404, "NotFound", f"no such endpoint: {request.path}")


def _require_method(request: Request, method: str) -> None:
    if request.method != method:
        raise ApiError(405, "MethodNotAllowed",
                       f"{request.path} supports {method}, "
                       f"got {request.method}")


def _job_or_404(queue: JobQueue, job_id: str) -> Job:
    job = queue.get(job_id)
    if job is None:
        raise ApiError(404, "UnknownJob", f"no such job: {job_id}")
    return job


def _stream_format(request: Request) -> str:
    explicit = request.query.get("format")
    if explicit in ("jsonl", "sse"):
        return explicit
    if explicit is not None:
        raise ApiError(400, "BadFormat",
                       f"format must be 'jsonl' or 'sse', got {explicit!r}")
    accept = request.headers.get("accept", "")
    return "sse" if "text/event-stream" in accept else "jsonl"


def _stream_cursor(request: Request) -> int:
    """The ``?cursor=N`` resume offset (0 = from the beginning).

    Cursors are absolute event indices — what a reconnecting client
    already consumed — so a dropped connection resumes where it left
    off instead of replaying (or worse, re-counting) the prefix.
    """
    raw = request.query.get("cursor")
    if raw is None:
        return 0
    try:
        cursor = int(raw)
    except ValueError:
        raise ApiError(400, "BadCursor",
                       f"cursor must be an integer, got {raw!r}") from None
    if cursor < 0:
        raise ApiError(400, "BadCursor",
                       f"cursor must be >= 0, got {cursor}")
    return cursor


# --- endpoint bodies -------------------------------------------------------

def handle_healthz(app) -> Dict[str, Any]:
    return {"status": "ok", "uptime_s": app.uptime_s}


def handle_stats(app) -> Dict[str, Any]:
    """Everything a dashboard wants about the shared session and queue."""
    simulator = app.queue.simulator
    return {
        "schema": STATS_SCHEMA,
        "uptime_s": app.uptime_s,
        "requests_served": app.requests_served,
        "connections_served": app.connections_served,
        "workers": app.queue.workers,
        "chunk_size": app.queue.chunk_size,
        "queue_depth": app.queue.depth,
        "jobs": app.queue.counts(),
        "cache": dataclasses.asdict(simulator.cache_info()),
        "passes": simulator.pass_info(),
        "pools": simulator.pool_info(),
        "resilience": simulator.resilience_info(),
        "engines": app.queue.engine_totals(),
        "journal": app.queue.journal_info(),
        "executor": simulator.executor_info(),
        "dispatch": (app.dispatch.describe()
                     if getattr(app, "dispatch", None) is not None
                     else None),
    }


def handle_dispatch(app, request: Request, parts) -> Dict[str, Any]:
    """The worker-facing lease protocol endpoints.

    All queue methods are fast lock-protected operations, safe to run
    on the event loop.  An unknown (or superseded) worker id is a typed
    409 ``UnknownWorker`` — the worker's cue to re-register, which is
    how the fleet survives a coordinator restart.
    """
    queue = getattr(app, "dispatch", None)
    if queue is None:
        raise ApiError(404, "DispatchDisabled",
                       "this daemon was started without --dispatch")
    if not parts:
        _require_method(request, "GET")
        return queue.describe()
    action = parts[0]
    if action not in ("register", "claim", "complete", "heartbeat",
                      "deregister"):
        raise ApiError(404, "NotFound",
                       f"no such endpoint: {request.path}")
    _require_method(request, "POST")
    payload = _dispatch_payload(request)
    try:
        if action == "register":
            return queue.register_worker(payload.get("meta") or {
                key: value for key, value in payload.items()
                if key in ("pid", "host", "executor")})
        worker_id = payload.get("worker_id")
        if not isinstance(worker_id, str) or not worker_id:
            raise ApiError(400, "InvalidSpec",
                           "'worker_id' (string) is required")
        if action == "claim":
            max_tasks = payload.get("max_tasks", 1)
            if not isinstance(max_tasks, int) or max_tasks < 1:
                raise ApiError(400, "InvalidSpec",
                               f"'max_tasks' must be a positive integer, "
                               f"got {max_tasks!r}")
            return {"tasks": queue.claim(worker_id, max_tasks)}
        if action == "complete":
            results = payload.get("results")
            if not isinstance(results, list) or any(
                    not isinstance(item, dict) or "task_id" not in item
                    or "result" not in item for item in results):
                raise ApiError(400, "InvalidSpec",
                               "'results' must be a list of objects with "
                               "'task_id' and 'result'")
            return queue.complete(worker_id, results)
        if action == "heartbeat":
            task_ids = payload.get("task_ids") or []
            if not isinstance(task_ids, list):
                raise ApiError(400, "InvalidSpec",
                               "'task_ids' must be a list")
            return queue.heartbeat(worker_id, task_ids)
        return queue.deregister_worker(worker_id)
    except KeyError as error:
        raise ApiError(409, "UnknownWorker",
                       f"no such worker: {error.args[0]}; "
                       f"re-register") from error


def _dispatch_payload(request: Request) -> Dict[str, Any]:
    if not request.body:
        return {}
    try:
        payload = json.loads(request.body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise ApiError(400, "InvalidJSON",
                       f"request body is not valid JSON: {error}") \
            from error
    if not isinstance(payload, dict):
        raise ApiError(400, "InvalidSpec",
                       f"dispatch body must be a JSON object, "
                       f"got {type(payload).__name__}")
    return payload


def job_document(job: Job) -> Dict[str, Any]:
    """The status document of one job, schema-tagged and linked."""
    payload = job.to_dict()
    payload["schema"] = JOB_SCHEMA
    payload["links"] = {
        "self": f"/jobs/{job.id}",
        "result": f"/jobs/{job.id}/result",
        "stream": f"/jobs/{job.id}/stream",
        "cancel": f"/jobs/{job.id}/cancel",
    }
    return payload


async def handle_submit(app, request: Request) -> Response:
    """Parse, validate, and enqueue one submitted spec.

    The body is either a bare spec (design/scenario, explore, or
    robust) or an envelope ``{"kind": "run"|"explore"|"robust",
    "spec": {...}}``.  Without an explicit kind, robust specs are
    recognized by their schema tag or a ``kind`` key (run and explore
    specs have none), explore specs by their schema tag or a ``space``
    key.  Bad specs are typed 400s; building the design happens off the
    event loop — structural payloads can be large.
    """
    import asyncio

    if len(request.body) > MAX_BODY_BYTES:
        raise ApiError(413, "PayloadTooLarge",
                       f"request body exceeds {MAX_BODY_BYTES} bytes")
    try:
        payload = json.loads(request.body.decode("utf-8") or "null")
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise ApiError(400, "InvalidJSON",
                       f"request body is not valid JSON: {error}") from error
    if not isinstance(payload, dict):
        raise ApiError(400, "InvalidSpec",
                       f"spec must be a JSON object, "
                       f"got {type(payload).__name__}")
    kind = None
    spec = payload
    if "spec" in payload:
        spec = payload["spec"]
        kind = payload.get("kind")
        if not isinstance(spec, dict):
            raise ApiError(400, "InvalidSpec",
                           f"'spec' must be a JSON object, "
                           f"got {type(spec).__name__}")
        if kind is not None and kind not in ("run", "explore", "robust"):
            raise ApiError(400, "InvalidSpec",
                           f"kind must be 'run', 'explore', or 'robust', "
                           f"got {kind!r}")
    if kind is None:
        if spec.get("schema") == ROBUST_SPEC_SCHEMA or "kind" in spec:
            kind = "robust"
        elif spec.get("schema") == EXPLORATION_SPEC_SCHEMA \
                or "space" in spec:
            kind = "explore"
        else:
            kind = "run"

    parse = {"explore": _parse_explore_spec,
             "robust": _parse_robust_spec}.get(kind, _parse_run_spec)
    parsed = await asyncio.get_running_loop().run_in_executor(
        None, parse, spec)
    try:
        if kind == "explore":
            job = app.queue.submit_explore(parsed)
        elif kind == "robust":
            job = app.queue.submit_robust(parsed)
        else:
            design, options = parsed
            job = app.queue.submit_run(design, options)
    except QueueClosed as error:
        raise ApiError(503, "ShuttingDown", str(error)) from error
    return Response(status=202, payload=job_document(job))


def _parse_explore_spec(spec: Dict[str, Any]):
    try:
        parsed = exploration_spec_from_dict(spec)
    except CamJError as error:
        raise ApiError(400, type(error).__name__, str(error)) from error
    if parsed.usecase not in available_usecases():
        raise ApiError(
            400, "ConfigurationError",
            f"unknown usecase {parsed.usecase!r}; "
            f"available: {available_usecases()}")
    return parsed


def _parse_robust_spec(spec: Dict[str, Any]):
    try:
        parsed = robust_spec_from_dict(spec)
    except CamJError as error:
        raise ApiError(400, type(error).__name__, str(error)) from error
    if parsed.usecase is not None \
            and parsed.usecase not in available_usecases():
        raise ApiError(
            400, "ConfigurationError",
            f"unknown usecase {parsed.usecase!r}; "
            f"available: {available_usecases()}")
    return parsed


def _parse_run_spec(spec: Dict[str, Any]):
    try:
        return scenario_from_spec(spec)
    except CamJError as error:
        raise ApiError(400, type(error).__name__, str(error)) from error


def handle_list_jobs(app) -> Dict[str, Any]:
    return {"jobs": [job_document(job) for job in app.queue.jobs()]}


def handle_result(app, job: Job) -> Dict[str, Any]:
    """The finished payload: a SimResult or ExplorationResult document."""
    with job.lock:
        state, result, error = job.state, job.result, job.error
    if state not in TERMINAL_STATES:
        raise ApiError(409, "JobNotFinished",
                       f"job {job.id} is {state.value}; poll /jobs/{job.id}")
    if state is not JobState.DONE:
        detail = f": {error['type']}: {error['message']}" if error else ""
        raise ApiError(409, "JobNotDone",
                       f"job {job.id} finished {state.value}{detail}")
    return {"id": job.id, "kind": job.kind, "result": result}


def handle_cancel(app, job: Job) -> Dict[str, Any]:
    app.queue.cancel(job.id)
    return job_document(job)


# --- streaming -------------------------------------------------------------

def stream_response(job: Job, fmt: str, start: int = 0) -> Response:
    """Tail a job's event stream as JSONL or SSE until it seals."""
    content_type = ("text/event-stream" if fmt == "sse"
                    else "application/x-ndjson")
    return Response(stream=_stream_events(job, fmt, start),
                    content_type=content_type)


def _encode_event(event: Dict[str, Any], fmt: str) -> bytes:
    document = json.dumps(event, sort_keys=True)
    if fmt == "sse":
        return (f"event: {event.get('event', 'message')}\n"
                f"data: {document}\n\n").encode("utf-8")
    return (document + "\n").encode("utf-8")


async def _stream_events(job: Job, fmt: str,
                         start: int = 0) -> AsyncIterator[bytes]:
    """Replay the job's buffer from ``start``, then tail it live.

    Subscribing after completion replays everything and returns at
    once; a live subscriber parks until the worker's next append or
    the terminal ``done`` event wakes it.  A cursor below the buffer's
    retained window gets one synthetic ``truncated`` event describing
    the gap (see :class:`~repro.serve.progress.StreamBuffer`).
    """
    cursor = start
    while True:
        events, cursor, closed = job.stream.read_from(cursor)
        for event in events:
            yield _encode_event(event, fmt)
        if closed and not events:
            return
        if not events:
            await job.stream.wait_beyond(cursor)
