"""The ``repro serve`` daemon: an asyncio HTTP/JSON simulation service.

One :class:`ServeApp` owns one :class:`repro.api.Simulator` session and
one :class:`repro.serve.jobs.JobQueue`; the HTTP layer here is a thin
hand-rolled HTTP/1.1 transport over ``asyncio.start_server`` — the
whole daemon is stdlib-only.  Connections are persistent: buffered
responses carry ``Content-Length`` and streams are sent with
``Transfer-Encoding: chunked`` (JSONL/SSE chunks written as results
land), so one connection carries any number of requests.  Only a
client's ``Connection: close`` (or an HTTP/1.0 request), a request
whose body is left unread (413, or 411 for a chunked request body) or
a malformed request ends one.

``ServeApp.run()`` is the blocking entry point the CLI uses: it
installs SIGINT/SIGTERM handlers, optionally writes a ready-file with
the bound address (how CI scripts find an ephemeral port), and shuts
down cleanly — queue flushed to terminal states, session terminally
closed — when signalled.  :class:`BackgroundServer` runs the same app
on a private event-loop thread for tests and benchmarks.
"""

from __future__ import annotations

import asyncio
import json
import os
import signal
import threading
import time
import urllib.parse
from typing import Any, Dict, Optional, Tuple

from repro.api.result import SimOptions
from repro.api.simulator import Simulator
from repro.serve.handlers import (ApiError, MAX_BODY_BYTES, Request,
                                  Response, dispatch)
from repro.serve.jobs import (DEFAULT_CHUNK_SIZE, DEFAULT_WORKERS,
                              JobQueue)

#: Default bind address of the daemon.
DEFAULT_HOST = "127.0.0.1"
DEFAULT_PORT = 8642

#: Reason phrases for the status codes the daemon emits.
_REASONS = {200: "OK", 202: "Accepted", 400: "Bad Request",
            404: "Not Found", 405: "Method Not Allowed",
            409: "Conflict", 411: "Length Required",
            413: "Payload Too Large",
            500: "Internal Server Error", 503: "Service Unavailable"}

#: Patience for reading one request off a connection; an idle
#: persistent connection is closed after as long, and shutdown gives
#: in-flight responses as long to finish.
REQUEST_TIMEOUT_S = 60.0


class ServeApp:
    """The long-lived simulation service.

    All constructor knobs mirror the ``repro serve`` CLI flags.  The
    shared session uses the thread executor — daemon jobs already
    overlap in its pool, and thread workers share the in-memory cache
    tier directly.  ``cache_dir=None`` keeps the ``REPRO_CACHE_DIR``
    default resolution of :class:`Simulator`.
    """

    def __init__(self, *, host: str = DEFAULT_HOST,
                 port: int = DEFAULT_PORT,
                 workers: int = DEFAULT_WORKERS,
                 chunk_size: int = DEFAULT_CHUNK_SIZE,
                 options: Optional[SimOptions] = None,
                 cache_dir: Optional[str] = None,
                 max_workers: Optional[int] = None,
                 executor: str = "thread",
                 journal_dir: Optional[str] = None,
                 dispatch: bool = False,
                 lease_ttl_s: Optional[float] = None,
                 heartbeat_s: Optional[float] = None) -> None:
        self.host = host
        self.port = port
        self.dispatch = None
        simulator_kwargs: Dict[str, Any] = {"max_workers": max_workers,
                                            "executor": executor}
        if dispatch:
            # Coordinator mode: the shared session executes through the
            # lease-based work queue that the /dispatch endpoints feed.
            from repro.exec.distributed import DistributedExecutor
            from repro.exec.queue import WorkQueue
            self.dispatch = WorkQueue(lease_ttl_s=lease_ttl_s,
                                      heartbeat_s=heartbeat_s)
            simulator_kwargs["executor"] = \
                DistributedExecutor(self.dispatch)
        if cache_dir is not None:
            simulator_kwargs["cache_dir"] = cache_dir
        self.simulator = Simulator(options, **simulator_kwargs)
        journal = None
        if journal_dir is not None:
            from repro.serve.journal import JobJournal
            journal = JobJournal(journal_dir)
        self.queue = JobQueue(self.simulator, workers=workers,
                              chunk_size=chunk_size, journal=journal)
        self.requests_served = 0
        self.connections_served = 0
        self._server: Optional[asyncio.base_events.Server] = None
        self._started_monotonic: Optional[float] = None
        #: Open connections -> whether a request on them is in flight.
        self._connections: Dict[asyncio.StreamWriter, bool] = {}
        self._closing = False
        self._drained: Optional[asyncio.Event] = None

    # --- lifecycle --------------------------------------------------------

    async def start(self) -> None:
        """Bind the socket and start the queue workers.

        With a journal, interrupted work from a previous daemon life is
        re-admitted *before* the socket binds — a client that connects
        right after restart already sees the recovered jobs.
        """
        self._started_monotonic = time.monotonic()
        await self.queue.start()
        self.queue.recover()
        self._drained = asyncio.Event()
        self._server = await asyncio.start_server(
            self._accept, self.host, self.port)
        # Ephemeral binds (port 0) resolve here.
        self.port = self._server.sockets[0].getsockname()[1]

    async def stop(self) -> None:
        """Graceful shutdown: no new work, flush jobs, close the session.

        Idle connections are closed at once; a request in flight gets
        its response (streams end once the queue flush seals their
        jobs), then its connection closes.  A response still unwritten
        after ``REQUEST_TIMEOUT_S`` (say, a client that stopped reading
        a stream) has its connection aborted.
        """
        if self._server is not None:
            self._server.close()
            self._closing = True
            self.close_idle_connections()
        await self.queue.close()
        if self._connections:
            try:
                await asyncio.wait_for(self._drained.wait(),
                                       REQUEST_TIMEOUT_S)
            except asyncio.TimeoutError:
                for writer in list(self._connections):
                    writer.transport.abort()
                # The abort fails the handlers' pending writes; their
                # other waits (a spec parse, a sealed stream) end alone.
                await self._drained.wait()
        if self._server is not None:
            await self._server.wait_closed()
            self._server = None
        if self.queue.journal is not None:
            self.queue.journal.close()
        self.simulator.close(terminal=True)

    @property
    def uptime_s(self) -> float:
        if self._started_monotonic is None:
            return 0.0
        return time.monotonic() - self._started_monotonic

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def run(self, ready_file: Optional[str] = None,
            announce: bool = True) -> None:
        """Serve until SIGINT/SIGTERM; the CLI entry point."""
        asyncio.run(self._run_until_signal(ready_file, announce))

    async def _run_until_signal(self, ready_file: Optional[str],
                                announce: bool) -> None:
        await self.start()
        stop_event = asyncio.Event()
        loop = asyncio.get_running_loop()
        installed = []
        for signum in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(signum, stop_event.set)
                installed.append(signum)
            except (NotImplementedError, RuntimeError):
                pass  # non-main thread / platforms without loop signals
        try:
            if announce:
                mode = "dispatch, " if self.dispatch is not None else ""
                print(f"repro serve listening on {self.url} "
                      f"({mode}workers={self.queue.workers}, "
                      f"pid={os.getpid()})", flush=True)
            if ready_file:
                self._write_ready_file(ready_file)
            await stop_event.wait()
            if announce:
                print("repro serve shutting down...", flush=True)
        finally:
            for signum in installed:
                loop.remove_signal_handler(signum)
            await self.stop()

    def _write_ready_file(self, path: str) -> None:
        """Atomically publish the bound address (ephemeral-port rendezvous)."""
        document = json.dumps({"host": self.host, "port": self.port,
                               "url": self.url, "pid": os.getpid()})
        tmp = f"{path}.tmp"
        with open(tmp, "w", encoding="utf-8") as handle:
            handle.write(document + "\n")
        os.replace(tmp, path)

    # --- the HTTP transport -----------------------------------------------

    def close_idle_connections(self) -> None:
        """Close every connection that has no request in flight."""
        for writer, busy in list(self._connections.items()):
            if not busy:
                writer.close()

    def _accept(self, reader: asyncio.StreamReader,
                writer: asyncio.StreamWriter):
        """Register a connection before its handler task first runs.

        ``asyncio`` calls this synchronously as the connection is made,
        so :meth:`stop` sees (and can close) even a connection whose
        handler has not started yet.
        """
        self._connections[writer] = False
        self.connections_served += 1
        return self._handle_connection(reader, writer)

    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        try:
            keep_alive = True
            while keep_alive and not self._closing:
                try:
                    request = await asyncio.wait_for(
                        self._read_request(reader, writer),
                        timeout=REQUEST_TIMEOUT_S)
                except asyncio.TimeoutError:
                    return
                except ApiError as error:
                    # The body (if any) is unread: end the connection.
                    await self._write_response(
                        writer, Response(status=error.status,
                                         payload=error.to_payload()),
                        keep_alive=False)
                    return
                if request is None:
                    return  # the client closed, or stop() did
                self.requests_served += 1
                keep_alive = request.keep_alive
                try:
                    response = await dispatch(self, request)
                except ApiError as error:
                    response = Response(status=error.status,
                                        payload=error.to_payload())
                except Exception as error:  # noqa: BLE001 - last-resort shield
                    response = Response(
                        status=500,
                        payload={"error": {"type": type(error).__name__,
                                           "message": str(error)}})
                await self._write_response(
                    writer, response,
                    keep_alive=keep_alive and not self._closing)
                self._connections[writer] = False
        except (ConnectionError, asyncio.IncompleteReadError):
            pass  # client went away mid-exchange; nothing to salvage
        finally:
            del self._connections[writer]
            if self._closing and not self._connections:
                self._drained.set()
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _read_request(self, reader: asyncio.StreamReader,
                            writer: asyncio.StreamWriter
                            ) -> Optional[Request]:
        """The next request on a connection; ``None`` at its end.

        The connection counts as busy from its request line on.
        """
        request_line = await reader.readline()
        if not request_line.strip():
            return None
        self._connections[writer] = True
        try:
            method, target, version = \
                request_line.decode("latin-1").split(None, 2)
        except ValueError:
            raise ApiError(400, "BadRequestLine",
                           "malformed HTTP request line") from None
        headers: Dict[str, str] = {}
        while True:
            line = await reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        try:
            length = int(headers.get("content-length", "0"))
        except ValueError:
            raise ApiError(400, "BadContentLength",
                           "Content-Length must be an integer") from None
        if length > MAX_BODY_BYTES:
            raise ApiError(413, "PayloadTooLarge",
                           f"request body exceeds {MAX_BODY_BYTES} bytes")
        if "transfer-encoding" in headers:
            raise ApiError(411, "LengthRequired",
                           "request bodies must carry a Content-Length")
        body = await reader.readexactly(length) if length > 0 else b""
        path, _, raw_query = target.partition("?")
        query = {name: values[-1] for name, values
                 in urllib.parse.parse_qs(raw_query).items()}
        keep_alive = (version.strip().upper() == "HTTP/1.1"
                      and headers.get("connection", "").lower() != "close")
        return Request(method=method.upper(),
                       path=urllib.parse.unquote(path),
                       query=query, headers=headers, body=body,
                       keep_alive=keep_alive)

    async def _write_response(self, writer: asyncio.StreamWriter,
                              response: Response, keep_alive: bool) -> None:
        """Write one response; streams are chunked on a kept connection.

        A stream on a connection that closes afterwards (HTTP/1.0) is
        delimited by the close instead, as HTTP/1.0 has no chunking.
        """
        reason = _REASONS.get(response.status, "Unknown")
        head = [f"HTTP/1.1 {response.status} {reason}",
                f"Content-Type: {response.content_type}"]
        if not keep_alive:
            head.append("Connection: close")
        if response.stream is None:
            body = (json.dumps(response.payload, sort_keys=True)
                    + "\n").encode("utf-8")
            head.append(f"Content-Length: {len(body)}")
            writer.write("\r\n".join(head).encode("latin-1")
                         + b"\r\n\r\n" + body)
            await writer.drain()
            return
        head.append("Cache-Control: no-store")
        if keep_alive:
            head.append("Transfer-Encoding: chunked")
        writer.write("\r\n".join(head).encode("latin-1") + b"\r\n\r\n")
        await writer.drain()
        async for chunk in response.stream:
            writer.write(b"%x\r\n%s\r\n" % (len(chunk), chunk)
                         if keep_alive else chunk)
            await writer.drain()
        if keep_alive:
            writer.write(b"0\r\n\r\n")
            await writer.drain()


class BackgroundServer:
    """A :class:`ServeApp` on a private event-loop thread.

    The in-process harness tests and benchmarks drive real HTTP
    through::

        with BackgroundServer(workers=2) as server:
            client = server.client()
            job = client.submit(spec)

    Defaults to an ephemeral port.  Exiting the context performs the
    same graceful shutdown as a signalled daemon; the app object stays
    inspectable afterwards (``server.app.queue.jobs()``).
    """

    def __init__(self, **app_kwargs: Any) -> None:
        app_kwargs.setdefault("port", 0)
        self._app_kwargs = app_kwargs
        self.app: Optional[ServeApp] = None
        self._ready = threading.Event()
        self._error: Optional[BaseException] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._stop: Optional[asyncio.Event] = None
        self._thread: Optional[threading.Thread] = None

    def __enter__(self) -> "BackgroundServer":
        self._thread = threading.Thread(target=self._run,
                                        name="repro-serve-bg", daemon=True)
        self._thread.start()
        if not self._ready.wait(timeout=60.0):
            raise RuntimeError("background server failed to start in time")
        if self._error is not None:
            raise RuntimeError("background server failed to start") \
                from self._error
        return self

    def __exit__(self, *exc_info: Any) -> bool:
        if self._loop is not None and self._stop is not None:
            self._loop.call_soon_threadsafe(self._stop.set)
        if self._thread is not None:
            self._thread.join(timeout=60.0)
        return False

    def _run(self) -> None:
        try:
            asyncio.run(self._amain())
        except BaseException as error:  # surface startup failures
            self._error = error
            self._ready.set()

    async def _amain(self) -> None:
        self.app = ServeApp(**self._app_kwargs)
        self._loop = asyncio.get_running_loop()
        self._stop = asyncio.Event()
        try:
            await self.app.start()
        except BaseException as error:
            self._error = error
            self._ready.set()
            return
        self._ready.set()
        await self._stop.wait()
        await self.app.stop()

    @property
    def address(self) -> Tuple[str, int]:
        assert self.app is not None
        return self.app.host, self.app.port

    @property
    def url(self) -> str:
        assert self.app is not None
        return self.app.url

    def client(self, timeout: float = 30.0):
        from repro.serve.client import ServeClient
        host, port = self.address
        return ServeClient(host=host, port=port, timeout=timeout)
