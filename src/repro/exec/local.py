"""The in-process executor backends: ``inline``, ``thread``, ``process``.

These wrap what :meth:`repro.api.Simulator.run_many` used to hard-code:
the thread-pool fan-out with per-task deadlines, and the windowed,
self-healing process-pool runner with crash quarantine.  ``inline`` is
the degenerate backend — sequential execution in the calling thread
with the same retry semantics — useful for debugging and deterministic
profiling.  The thread and process backends each own one persistent
pool (:class:`PooledExecutor`).

The ``thread`` backend (the default, and the distributed executor's
local fallback) hands the pool only work that threads can overlap.
Without a per-task deadline and under a GIL, it runs pending jobs one
by one on the calling thread while the running mean wall time of the
jobs run so far stays at or below :func:`sys.getswitchinterval`: a job
that short is over before the interpreter would even offer the GIL to
another thread, so pool threads could only take turns on it and add the
hand-off.  The first time the mean goes over (jobs that block, sleep in
retry backoff or are truly long), the remaining jobs go to the pool.  A
mean, not a single slow job, decides, so one host stall does not fan a
batch of fast jobs out.  With a deadline set every job runs in the pool,
because code running on the calling thread cannot be timed out.

All three produce bit-identical results for the same batch; only the
parallelism (and therefore the wall clock and ``workers_used``) differs.
"""

from __future__ import annotations

import os
import sys
import threading
import time
from abc import abstractmethod
from collections import deque
from concurrent.futures import (BrokenExecutor, Executor,
                                ThreadPoolExecutor)
from concurrent.futures import TimeoutError as FuturesTimeoutError
from concurrent.futures import FIRST_COMPLETED
from concurrent.futures import wait as futures_wait
from dataclasses import replace
from typing import Any, Dict, List, Optional, Tuple

from repro.api.design import Design
from repro.api.result import SimOptions, SimResult
from repro.exceptions import ConfigurationError
from repro.exec.base import (UNCACHED, SimulationExecutor,
                             quarantined_result, timeout_result)
from repro.resilience.policy import QUARANTINE_THRESHOLD


class InlineExecutor(SimulationExecutor):
    """Sequential execution in the calling thread.

    Same cache, retry, and backoff behavior as the thread backend —
    just without a pool, so results are bit-identical while execution
    order is the batch's key order and ``workers_used`` is exactly 1.
    """

    name = "inline"

    def run_pending(self, session, pending, max_workers, worker_ids,
                    counters) -> Dict[Any, SimResult]:
        return _run_in_caller(session, pending, worker_ids, counters)


class PooledExecutor(SimulationExecutor):
    """A backend owning one lazily grown, never-shrinking pool.

    The pool is created on the first batch that needs it and reused by
    every batch after it; a wider batch replaces it with a wider one
    (the retired pool drains its in-flight work without blocking
    anyone).  Idle workers are cheap next to re-paying startup on the
    next wide batch, so pools never shrink.  ``_lock`` guards creation,
    growth and submission, so a batch never submits into a pool another
    thread just retired.
    """

    #: The ``pool_info()`` width this pool reports (``thread``/``process``).
    pool_kind: str = "?"

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._pool: Optional[Executor] = None
        self._width = 0

    @abstractmethod
    def _new_pool(self, width: int) -> Executor:
        """A fresh pool of ``width`` workers."""

    def _acquire(self, session, width: int) -> Executor:
        """The pool, grown to ``width`` if narrower (``_lock`` held)."""
        _refuse_closed(session)
        if self._pool is not None and self._width >= width:
            return self._pool
        if self._pool is not None:
            self._pool.shutdown(wait=False)
        self._pool, self._width = self._new_pool(width), width
        return self._pool

    def _retire(self, pool: Executor) -> None:
        """Drop a broken (or hung) pool so the next acquire rebuilds."""
        with self._lock:
            if self._pool is pool:
                self._pool, self._width = None, 0
        pool.shutdown(wait=False)

    def close(self, wait: bool = True, *,
              cancel_pending: bool = False) -> None:
        with self._lock:
            if self._pool is not None:
                self._pool.shutdown(wait=wait, cancel_futures=cancel_pending)
            self._pool, self._width = None, 0

    def pool_width_floor(self) -> int:
        return self._width

    def pool_widths(self) -> Dict[str, int]:
        return {self.pool_kind: self._width}


class ThreadExecutor(PooledExecutor):
    """Run fast GIL-bound jobs in the caller, the rest in a thread pool.

    The rule, and why it holds, are in the module notes.
    """

    name = "thread"
    pool_kind = "thread"

    def _new_pool(self, width: int) -> Executor:
        return ThreadPoolExecutor(max_workers=width,
                                  thread_name_prefix="repro-simulator")

    def run_pending(self, session, pending, max_workers, worker_ids,
                    counters) -> Dict[Any, SimResult]:
        timeout_s = session._retry.timeout_s
        outcomes: Dict[Any, SimResult] = {}
        if timeout_s is None and getattr(sys, "_is_gil_enabled",
                                         lambda: True)():
            # GIL-bound jobs shorter than a switch interval cannot
            # overlap in a pool: run them here (see the module notes).
            _refuse_closed(session)
            outcomes = _run_in_caller(session, pending, worker_ids,
                                      counters, sys.getswitchinterval())
            if len(outcomes) == len(pending):
                return outcomes
            pending = {key: job for key, job in pending.items()
                       if key not in outcomes}
        #: key -> when its job started running (its deadline's origin).
        started: Dict[Any, float] = {}

        def job(key: Any, design: Design,
                resolved: SimOptions) -> SimResult:
            started[key] = time.monotonic()
            worker_ids.add(threading.get_ident())
            return session._run_attempts(design, resolved, key,
                                         counters=counters)

        with self._lock:
            pool = self._acquire(session, max_workers)
            futures = {key: pool.submit(job, key, design, resolved)
                       for key, (design, resolved) in pending.items()}
        if timeout_s is None:
            outcomes.update((key, future.result())
                            for key, future in futures.items())
            return outcomes

        # A running thread cannot be interrupted, so in thread mode the
        # deadline covers the whole task from when its job starts, and
        # is enforced at harvest: a late task is reported as a typed
        # timeout while its thread finishes in the background (the
        # job's _run_resolved still caches the late result).  A job not
        # yet started cannot expire within the next ``timeout_s``.
        for key, future in futures.items():
            while key not in outcomes:
                begun = started.get(key)
                slack = timeout_s if begun is None \
                    else begun + timeout_s - time.monotonic()
                try:
                    outcomes[key] = future.result(timeout=max(slack, 0.0))
                except FuturesTimeoutError:
                    if begun is None:
                        continue  # still queued when the wait began
                    counters.add("timeouts")
                    design, resolved = pending[key]
                    outcomes[key] = timeout_result(
                        design, resolved,
                        key[0] if key[0] is not UNCACHED else None,
                        timeout_s)
        return outcomes


class ProcessExecutor(PooledExecutor):
    """Fan cache-missing jobs out as serialized payloads.

    Workers live as long as the executor's pool: the pool initializer
    runs once per worker process (not per batch), and every batch after
    the first reuses the already-warm workers.

    Submission is *windowed* — at most ``max_workers`` tasks are in
    flight — which is what makes worker deaths survivable: when a
    dead worker poisons the executor (``BrokenProcessPool``), the
    suspect set is exactly the in-flight window.  The pool is
    rebuilt, the suspects are re-queued, and a task implicated in
    :data:`~repro.resilience.policy.QUARANTINE_THRESHOLD` pool
    deaths is failed with a typed
    :class:`~repro.exceptions.WorkerCrashError` result instead of
    sinking the whole batch.  Transient failures re-queue under the
    retry policy's backoff; a per-attempt deadline expiry retires
    the pool (reclaiming the hung slot; the stuck worker process is
    abandoned and exits with its task).
    """

    name = "process"
    pool_kind = "process"
    requires_serializable = True

    def _new_pool(self, width: int) -> Executor:
        # Imported here: the process machinery (multiprocessing and its
        # connection module) costs a session that never pools processes.
        from concurrent.futures import ProcessPoolExecutor
        return ProcessPoolExecutor(max_workers=width,
                                   initializer=_init_worker)

    def run_pending(self, session, pending, max_workers, worker_ids,
                    counters) -> Dict[Any, SimResult]:
        policy = session._retry
        outcomes: Dict[Any, SimResult] = {}
        session._count_misses(len(pending))

        #: Work queue entries are (key, design, options, attempt).
        ready = deque((key, design, resolved, 0)
                      for key, (design, resolved) in pending.items())
        #: Backoff parking lot: (ready_at, key, design, options, attempt).
        delayed: List[Tuple] = []
        #: Pool deaths each key has been implicated in.
        crashes: Dict[Any, int] = {}
        #: future -> (key, design, options, attempt, started_at).
        in_flight: Dict[Any, Tuple] = {}
        #: Heal rounds that neither settled nor implicated anything —
        #: a pool that cannot even start is not healable by rebuilding.
        barren_rebuilds = 0

        def settle(entry, pid, result) -> None:
            key, design, resolved, attempt = entry[:4]
            worker_ids.add(pid)
            result = replace(result, design_hash=key[0])
            if policy.should_retry(attempt, result.error):
                counters.add("retries")
                delayed.append((
                    time.monotonic() + policy.backoff_s(attempt, key),
                    key, design, resolved, attempt + 1))
                return
            session._store(key, result)
            outcomes[key] = result

        while ready or delayed or in_flight:
            _promote_due(delayed, ready)
            broken: Optional[BaseException] = None

            # Fill the in-flight window from the ready queue.  A crash
            # suspect (implicated in a previous pool death) reruns
            # *alone* in the window: if it kills its worker again the
            # blast radius is just itself, so innocent neighbours are
            # never implicated twice into quarantine by riding along.
            try:
                with self._lock:
                    pool = self._acquire(session, max_workers)
                    solo = any(crashes.get(entry[0])
                               for entry in in_flight.values())
                    while ready and not solo \
                            and len(in_flight) < max_workers:
                        key, design, resolved, attempt = ready[0]
                        if crashes.get(key):
                            if in_flight:
                                break  # wait for the window to drain
                            solo = True
                        future = pool.submit(
                            _subprocess_job, design.to_dict(), resolved,
                            attempt, key[0])
                        ready.popleft()
                        in_flight[future] = (key, design, resolved,
                                             attempt, time.monotonic())
            except BrokenExecutor as error:
                broken = error

            if broken is None and not in_flight:
                # Everything left is waiting out a backoff delay.
                if delayed:
                    time.sleep(max(
                        min(entry[0] for entry in delayed)
                        - time.monotonic(), 0.0))
                continue

            if broken is None:
                # Wake on the first completion — or in time to promote
                # delayed work / expire the nearest per-attempt deadline.
                waits = [0.05] if delayed else []
                if policy.timeout_s is not None:
                    waits.append(max(
                        min(entry[4] for entry in in_flight.values())
                        + policy.timeout_s - time.monotonic(), 0.0))
                done, _ = futures_wait(set(in_flight),
                                       timeout=min(waits, default=None),
                                       return_when=FIRST_COMPLETED)
                for future in done:
                    entry = in_flight.pop(future)
                    try:
                        pid, result = future.result()
                    except BrokenExecutor as error:
                        broken = error
                        # This future's task was in flight when the
                        # worker died: it is a suspect like the rest.
                        in_flight[future] = entry
                        break
                    settle(entry, pid, result)
                    barren_rebuilds = 0
                if broken is None:
                    if not done and policy.timeout_s is not None:
                        self._expire_attempts(in_flight, pool, policy,
                                              counters, ready, outcomes)
                    continue

            # --- heal a broken pool -----------------------------------
            # Every in-flight future is either already failed with
            # BrokenProcessPool or carries a result computed before the
            # death; drain both kinds, then rebuild.
            suspects = []
            for future in list(in_flight):
                entry = in_flight.pop(future)
                try:
                    pid, result = future.result(timeout=1.0)
                except (BrokenExecutor, FuturesTimeoutError, OSError):
                    suspects.append(entry)
                    continue
                settle(entry, pid, result)
                barren_rebuilds = 0
            counters.add("pool_rebuilds")
            self._retire(pool)
            if suspects:
                barren_rebuilds = 0
            else:
                barren_rebuilds += 1
                if barren_rebuilds > 3:
                    # Rebuilding is not helping (workers die before
                    # taking any work): surface the infrastructure
                    # failure instead of spinning forever.
                    raise broken
            for entry in suspects:
                key, design, resolved, attempt = entry[:4]
                count = crashes.get(key, 0) + 1
                crashes[key] = count
                if count >= QUARANTINE_THRESHOLD:
                    counters.add("quarantined")
                    outcomes[key] = quarantined_result(
                        design, resolved, key[0],
                        f"was in flight for {count} worker-process deaths")
                else:
                    # Re-queue on the healed pool.  The bumped attempt
                    # number also tells the fault injector this is a
                    # retry, so kill_rate faults (first attempt only by
                    # default) let recovery be measured.
                    ready.append((key, design, resolved, attempt + 1))
        return outcomes

    def _expire_attempts(self, in_flight, pool, policy, counters, ready,
                         outcomes) -> None:
        """Time out in-flight attempts past the per-attempt deadline.

        Process mode cannot interrupt a busy worker either — but it can
        retire the whole pool, which reclaims the hung slot for the
        rebuilt pool while the abandoned worker process dies with its
        task.  Non-expired in-flight futures stay harvestable: a pool
        shutdown without cancellation lets running tasks finish.
        """
        now = time.monotonic()
        expired = [future for future, entry in in_flight.items()
                   if now - entry[4] >= policy.timeout_s]
        if not expired:
            return
        for future in expired:
            key, design, resolved, attempt = in_flight.pop(future)[:4]
            future.cancel()
            counters.add("timeouts")
            result = timeout_result(design, resolved, key[0],
                                    policy.timeout_s, "per-attempt deadline")
            if policy.should_retry(attempt, result.error):
                counters.add("retries")
                ready.append((key, design, resolved, attempt + 1))
            else:
                outcomes[key] = result
        counters.add("pool_rebuilds")
        self._retire(pool)


def _refuse_closed(session) -> None:
    """Refuse pending work of a terminally closed session."""
    if session.closed:
        raise ConfigurationError(
            "session was terminally closed; create a new Simulator "
            "to run further batches")


def _run_in_caller(session, pending, worker_ids, counters,
                   mean_budget_s: Optional[float] = None
                   ) -> Dict[Any, SimResult]:
    """Run pending jobs one by one on the calling thread.

    With ``mean_budget_s`` the loop stops after the job that lifts the
    running mean wall time per job above it; the outcomes so far are
    returned and the caller runs the rest.
    """
    outcomes: Dict[Any, SimResult] = {}
    started = time.perf_counter()
    for key, (design, resolved) in pending.items():
        worker_ids.add(threading.get_ident())
        outcomes[key] = session._run_attempts(design, resolved, key,
                                              counters=counters)
        if mean_budget_s is not None and time.perf_counter() - started \
                > mean_budget_s * len(outcomes):
            break
    return outcomes


def _promote_due(delayed: List[Tuple], ready: deque) -> None:
    """Move backoff entries whose delay has elapsed onto the ready queue."""
    now = time.monotonic()
    due = sorted((entry for entry in delayed if entry[0] <= now),
                 key=lambda entry: entry[0])
    delayed[:] = [entry for entry in delayed if entry[0] > now]
    ready.extend(entry[1:] for entry in due)


def _init_worker() -> None:
    """Process-pool initializer: warm each worker exactly once.

    Runs when a worker process starts — not per batch — and the state it
    creates (imported engine modules, populated caches) persists for the
    session's lifetime, which is what makes pool reuse pay off in
    ``executor="process"`` mode.

    Fork-started workers also inherit the parent's signal plumbing.
    Under an asyncio host (the serve daemon), that includes the event
    loop's wakeup fd — a socketpair *shared* with the parent — so a
    SIGTERM delivered to a worker (e.g. by the executor terminating
    siblings while healing a crashed pool) would echo into the parent's
    loop and be handled as the daemon's own shutdown signal.  Detach
    the wakeup fd and restore default dispositions so signals aimed at
    a worker stay in that worker.
    """
    import signal

    try:
        signal.set_wakeup_fd(-1)
    except (ValueError, OSError):  # pragma: no cover - non-main thread
        pass
    for signum in (signal.SIGINT, signal.SIGTERM):
        try:
            signal.signal(signum, signal.SIG_DFL)
        except (ValueError, OSError):  # pragma: no cover
            pass
    import repro.api.design  # noqa: F401  (pulls in the whole engine)
    import repro.sim.simulator  # noqa: F401


def _subprocess_job(payload: Dict[str, Any], options: SimOptions,
                    attempt: int = 0,
                    design_hash: Optional[str] = None
                    ) -> Tuple[int, SimResult]:
    """Worker body of the process executor: rebuild, simulate, return.

    The design travels as its serialized payload (always picklable),
    so worker processes never depend on pickling user-built objects.
    ``attempt`` reaches the fault injector (inherited via the
    environment), which is how retried tasks stop being re-killed;
    ``design_hash`` travels alongside so the injector keys its
    decisions on the same content identity in every executor mode
    instead of degrading to the (possibly shared) design name.
    """
    from repro.api.simulator import Simulator

    design = Design.from_dict(payload)
    key = (design_hash, options) if design_hash is not None else None
    result = Simulator(cache=False)._execute(design, options, key,
                                             attempt=attempt)
    return os.getpid(), result
