"""A typed stdlib client for the ``repro serve`` daemon.

:class:`ServeClient` speaks the daemon's HTTP/JSON API with nothing but
``http.client``: submit specs, poll jobs, fetch results, cancel, tail
JSONL streams.  It is what the tests, the shipped example, and future
distributed workers use instead of hand-rolling requests::

    client = ServeClient(port=8642)
    job = client.submit(json.load(open("examples/explore_edgaze.json")))
    done = client.wait(job["id"])
    result = client.result(job["id"])["result"]

Requests reuse persistent connections from a small pool of idle ones,
so one client is safe to share across threads: each request holds its
own connection while it runs.
"""

from __future__ import annotations

import http.client
import json
import select
import socket
import threading
import time
import urllib.parse
from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro.serve.app import REQUEST_TIMEOUT_S
from repro.serve.jobs import TERMINAL_STATES

#: Job states the client treats as "no further change coming".
TERMINAL_STATE_NAMES = frozenset(state.value for state in TERMINAL_STATES)

#: Idle connections one client keeps for reuse.
POOL_SIZE = 4

#: Age past which an idle connection is dropped rather than reused:
#: well before the daemon's own idle timeout could close it under a
#: request just sent.
MAX_IDLE_S = REQUEST_TIMEOUT_S / 2


class ServeError(Exception):
    """A typed error response (or transport failure) from the daemon."""

    def __init__(self, status: int, error_type: str, message: str) -> None:
        super().__init__(f"{error_type}: {message} (HTTP {status})")
        self.status = status
        self.error_type = error_type
        self.message = message


class ServeTimeout(ServeError):
    """A :meth:`ServeClient.wait` deadline expired."""

    def __init__(self, job_id: str, timeout: float, state: str) -> None:
        Exception.__init__(
            self, f"job {job_id} still {state} after {timeout:g}s")
        self.status = 0
        self.error_type = "Timeout"
        self.message = str(self)


class _Connection(http.client.HTTPConnection):
    """An HTTP connection with Nagle's algorithm disabled.

    ``http.client`` sends request headers and body in separate writes;
    with Nagle on, the body write stalls behind the peer's delayed ACK
    (~40 ms) on every POST — which is most of a dispatch worker's
    claim/complete cycle on a fast network.
    """

    def connect(self) -> None:
        super().connect()
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)


def _reusable(connection: http.client.HTTPConnection) -> bool:
    """Whether an idle connection is still open on the daemon's side.

    A zero-timeout poll: an idle connection the daemon closed (idle
    timeout, shutdown) reads as ready, with EOF.  Checking before every
    reuse means a request is never sent into a closed connection, so
    a POST is never re-sent.
    """
    if connection.sock is None:
        return False
    readable, _, _ = select.select([connection.sock], [], [], 0)
    return not readable


class ServeClient:
    """Programmatic surface over one daemon address.

    Call :meth:`close` (or use the client as a context manager) to
    drop its idle connections before the client goes away.
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 8642, *,
                 timeout: float = 30.0, stream_reconnects: int = 5,
                 stream_backoff_s: float = 0.05,
                 stream_backoff_max_s: float = 2.0) -> None:
        self.host = host
        self.port = port
        self.timeout = timeout
        self.stream_reconnects = stream_reconnects
        self.stream_backoff_s = stream_backoff_s
        self.stream_backoff_max_s = stream_backoff_max_s
        #: ``(connection, monotonic check-in time)``, newest last.
        self._idle: List[Tuple[http.client.HTTPConnection, float]] = []
        self._idle_lock = threading.Lock()

    @classmethod
    def from_url(cls, url: str, *, timeout: float = 30.0) -> "ServeClient":
        """A client from a ``http://host:port`` base URL."""
        parsed = urllib.parse.urlsplit(url)
        if parsed.scheme not in ("http", ""):
            raise ValueError(f"unsupported scheme {parsed.scheme!r}")
        host = parsed.hostname or "127.0.0.1"
        port = parsed.port or 8642
        return cls(host=host, port=port, timeout=timeout)

    def close(self) -> None:
        """Close the idle connections; the client stays usable."""
        with self._idle_lock:
            idle, self._idle = self._idle, []
        for connection, _ in idle:
            connection.close()

    def __enter__(self) -> "ServeClient":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    # --- plumbing ---------------------------------------------------------

    def _checkout(self) -> http.client.HTTPConnection:
        """A recent idle pooled connection still open, else a fresh one."""
        while True:
            with self._idle_lock:
                connection, idle_since = (self._idle.pop() if self._idle
                                          else (None, 0.0))
            if connection is None:
                connection = _Connection(self.host, self.port,
                                         timeout=self.timeout)
                connection.connect()
                return connection
            if time.monotonic() - idle_since < MAX_IDLE_S \
                    and _reusable(connection):
                return connection
            connection.close()

    def _checkin(self, connection: http.client.HTTPConnection) -> None:
        """Pool a connection whose last response was read to the end."""
        with self._idle_lock:
            if connection.sock is not None \
                    and len(self._idle) < POOL_SIZE:
                self._idle.append((connection, time.monotonic()))
                return
        connection.close()

    def _request(self, method: str, path: str,
                 payload: Optional[Any] = None) -> Any:
        body = None
        headers = {}
        if payload is not None:
            body = json.dumps(payload).encode("utf-8")
            headers["Content-Type"] = "application/json"
        connection = self._checkout()
        try:
            connection.request(method, path, body=body, headers=headers)
            response = connection.getresponse()
            raw = response.read()
        except BaseException:
            connection.close()
            raise
        self._checkin(connection)
        if response.status >= 400:
            raise _error(response.status, raw)
        return json.loads(raw) if raw else None

    # --- service endpoints ------------------------------------------------

    def healthz(self) -> Dict[str, Any]:
        return self._request("GET", "/healthz")

    def stats(self) -> Dict[str, Any]:
        return self._request("GET", "/stats")

    def jobs(self) -> List[Dict[str, Any]]:
        return self._request("GET", "/jobs")["jobs"]

    # --- job lifecycle ----------------------------------------------------

    def submit(self, spec: Dict[str, Any],
               kind: Optional[str] = None) -> Dict[str, Any]:
        """Submit a design (``repro.design/1`` scenario) or explore spec.

        ``kind`` (``"run"``/``"explore"``) overrides the daemon's
        schema-based inference.  Returns the job status document.
        """
        payload = {"kind": kind, "spec": spec} if kind is not None else spec
        return self._request("POST", "/jobs", payload)

    def job(self, job_id: str) -> Dict[str, Any]:
        """The job's current status document."""
        return self._request("GET", f"/jobs/{job_id}")

    def result(self, job_id: str) -> Dict[str, Any]:
        """The finished result envelope; raises 409 until terminal."""
        return self._request("GET", f"/jobs/{job_id}/result")

    def cancel(self, job_id: str) -> Dict[str, Any]:
        """Request cancellation; returns the (possibly updated) status."""
        return self._request("POST", f"/jobs/{job_id}/cancel")

    def wait(self, job_id: str, timeout: float = 120.0,
             poll_s: float = 0.05,
             max_poll_s: float = 2.0) -> Dict[str, Any]:
        """Poll until the job is terminal; returns its final status.

        The poll interval starts at ``poll_s`` and doubles up to
        ``max_poll_s`` — snappy for short jobs, gentle on the daemon
        for long ones — and never sleeps past the deadline.
        """
        deadline = time.monotonic() + timeout
        interval = poll_s
        while True:
            document = self.job(job_id)
            if document["state"] in TERMINAL_STATE_NAMES:
                return document
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise ServeTimeout(job_id, timeout, document["state"])
            time.sleep(min(interval, remaining))
            interval = min(interval * 2, max_poll_s)

    def stream(self, job_id: str) -> Iterator[Dict[str, Any]]:
        """Tail the job's JSONL stream; yields event dicts until done.

        Explore jobs yield ``{"event": "point", ...}`` per finished
        point (in space order) and finally ``{"event": "done", ...}``
        carrying the terminal job document.  A connection dropped
        mid-stream is retried up to ``stream_reconnects`` consecutive
        times under capped exponential backoff (``stream_backoff_s``
        doubling up to ``stream_backoff_max_s``), resuming each time at
        the server-side cursor of the last event consumed — nothing is
        replayed or lost.  The budget resets whenever a reconnection
        actually makes progress, so a long stream over a flaky link
        survives any number of *spread-out* drops; only
        ``stream_reconnects + 1`` failures in a row with no event in
        between raise the typed ``ConnectionLost`` :class:`ServeError`.
        """
        seen = 0  # real events consumed (cursor currency; see handlers)
        drops = 0  # consecutive transport failures since last progress
        while True:
            progressed = False
            try:
                for event in self._stream_once(job_id, cursor=seen):
                    if event.get("event") != "truncated":
                        seen += 1
                        progressed = True
                    yield event
                return
            except (http.client.HTTPException, OSError) as error:
                # ServeError (a typed daemon response) is not caught
                # here and propagates immediately; only transport-level
                # drops draw from the reconnect budget.
                if progressed:
                    drops = 0
                drops += 1
                if drops > self.stream_reconnects:
                    raise ServeError(
                        0, "ConnectionLost",
                        f"stream for {job_id} dropped {drops} times "
                        f"without progress: {error}") from error
                time.sleep(min(
                    self.stream_backoff_s * (2.0 ** (drops - 1)),
                    self.stream_backoff_max_s))

    def _stream_once(self, job_id: str,
                     cursor: int = 0) -> Iterator[Dict[str, Any]]:
        """One streaming request, resumed from ``cursor``.

        The connection returns to the pool only once the stream was
        read to its end; an abandoned or failed stream closes it.
        """
        connection = self._checkout()
        finished = False
        try:
            connection.request(
                "GET",
                f"/jobs/{job_id}/stream?format=jsonl&cursor={cursor}")
            response = connection.getresponse()
            if response.status >= 400:
                raw = response.read()
                finished = True
                raise _error(response.status, raw)
            for line in response:
                line = line.strip()
                if line:
                    yield json.loads(line)
            finished = True
        finally:
            if finished:
                self._checkin(connection)
            else:
                connection.close()


def _error(status: int, raw: bytes) -> ServeError:
    """The typed error of a daemon error response body."""
    error = {}
    try:
        error = (json.loads(raw) or {}).get("error", {})
    except (json.JSONDecodeError, AttributeError):
        pass
    return ServeError(status, error.get("type", "HTTPError"),
                      error.get("message", raw.decode("utf-8", "replace")))
