"""Per-job progress bookkeeping and the streaming event buffer.

Job execution happens on daemon worker threads while HTTP handlers read
job state from the event loop, so both structures here are small,
lock-protected values: :class:`JobProgress` is the points-completed /
cache-hit counter block every status response embeds, and
:class:`StreamBuffer` is the append-only event log that the JSONL/SSE
endpoints replay — a late subscriber sees every event from the start,
a live one tails new events as the worker appends them.
"""

from __future__ import annotations

import asyncio
import threading
from collections import deque
from dataclasses import dataclass
from itertools import islice
from typing import Any, Dict, List, Optional, Tuple

#: How many events one job's stream retains by default.  Far above any
#: realistic explore chunk stream; the cap exists so a pathological
#: million-point job cannot hold every event in memory forever.
DEFAULT_STREAM_EVENTS = 4096


@dataclass
class JobProgress:
    """How far one job has come.

    ``total`` is ``None`` until the job's work has been sized (an
    explore job learns its point count when execution starts; a design
    job is always 1).  ``cache_hits`` counts this job's simulations
    served from the shared session cache — across concurrent clients,
    these are what make the one-session daemon pay off.
    """

    total: Optional[int] = None
    completed: int = 0
    cache_hits: int = 0

    def to_dict(self) -> Dict[str, Any]:
        return {
            "total": self.total,
            "completed": self.completed,
            "cache_hits": self.cache_hits,
        }


class StreamBuffer:
    """Bounded, thread-safe event log with absolute cursor reads.

    Writers (worker threads) :meth:`append` event dicts and eventually
    :meth:`close` the buffer; readers (streaming handlers) call
    :meth:`read_from` with their last cursor, :meth:`wait_beyond` it
    for the writer's wake-up when nothing is new, and stop once the
    buffer is closed and drained.

    Retention is a ring: the newest ``maxlen`` events are kept and the
    oldest beyond that are dropped, so a million-point job cannot pin
    every event in daemon memory.  Cursors are **absolute** event
    indices (they keep counting across drops); a reader whose cursor
    has fallen out of the retained window gets one synthetic
    ``{"event": "truncated", "dropped": N}`` marker summarizing the
    gap, then the stream continues from the oldest retained event.
    Subscribers inside the window still replay losslessly from the
    start.
    """

    def __init__(self, maxlen: int = DEFAULT_STREAM_EVENTS) -> None:
        if maxlen < 1:
            raise ValueError(f"maxlen must be >= 1, got {maxlen}")
        self.maxlen = maxlen
        self._events: "deque[Dict[str, Any]]" = deque()
        #: Events discarded off the front; the absolute index of the
        #: oldest retained event.
        self._dropped = 0
        self._lock = threading.Lock()
        self._closed = False
        #: Futures of readers parked in :meth:`wait_beyond`.
        self._waiters: List["asyncio.Future[None]"] = []

    def append(self, event: Dict[str, Any]) -> None:
        with self._lock:
            if self._closed:
                raise RuntimeError("stream buffer is closed")
            self._events.append(event)
            if len(self._events) > self.maxlen:
                self._events.popleft()
                self._dropped += 1
            waiters, self._waiters = self._waiters, []
        _wake(waiters)

    def close(self) -> None:
        """No further events will arrive (idempotent)."""
        with self._lock:
            self._closed = True
            waiters, self._waiters = self._waiters, []
        _wake(waiters)

    async def wait_beyond(self, cursor: int) -> None:
        """Return once an event past ``cursor`` exists or the buffer closes.

        The check and the registration happen under the buffer lock, so
        an append racing the call either is seen here or wakes the
        reader: no event is missed and no reader polls.
        """
        with self._lock:
            if self._closed or self._dropped + len(self._events) > cursor:
                return
            waiter = asyncio.get_running_loop().create_future()
            self._waiters.append(waiter)
        await waiter

    def read_from(self, cursor: int
                  ) -> Tuple[List[Dict[str, Any]], int, bool]:
        """Events after ``cursor``; returns ``(events, new_cursor, done)``.

        ``done`` is true only when the buffer is closed *and* the
        returned slice reaches its end — a reader seeing it can stop
        polling without missing events.  ``new_cursor`` counts real
        events only: a synthetic ``truncated`` marker never advances
        it past the events it stands in for.
        """
        with self._lock:
            first_retained = self._dropped
            total = first_retained + len(self._events)
            if cursor >= total:
                return [], max(cursor, total), self._closed
            events: List[Dict[str, Any]] = []
            if cursor < first_retained:
                events.append({"event": "truncated",
                               "dropped": first_retained - cursor})
                cursor = first_retained
            events.extend(islice(self._events,
                                 cursor - first_retained, None))
            return events, total, self._closed

    @property
    def dropped(self) -> int:
        """How many old events the ring has discarded so far."""
        with self._lock:
            return self._dropped

    def __len__(self) -> int:
        """Total events ever appended (retained plus dropped)."""
        with self._lock:
            return self._dropped + len(self._events)


def _wake(waiters: List["asyncio.Future[None]"]) -> None:
    """Resolve parked readers' futures on their own loops (any thread)."""
    for waiter in waiters:
        try:
            waiter.get_loop().call_soon_threadsafe(_resolve, waiter)
        except RuntimeError:
            pass  # the reader's loop is closed: nobody is waiting


def _resolve(waiter: "asyncio.Future[None]") -> None:
    if not waiter.done():  # a cancelled reader leaves a done future
        waiter.set_result(None)
