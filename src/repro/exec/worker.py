"""The ``repro worker`` process: pulls leased tasks, executes, reports.

A :class:`DispatchWorker` connects to a coordinator started with
``repro serve --dispatch`` (or ``repro dispatch``), registers itself,
and loops: claim a task batch, execute every task through a local
:class:`~repro.api.Simulator` (sharing the concurrent-writer-safe disk
cache tier with the coordinator and its sibling workers via
``REPRO_CACHE_DIR``), post the results back, repeat.  A background
thread renews the worker's leases by heartbeating at the interval the
coordinator announced at registration; both threads share one
:class:`~repro.serve.client.ServeClient` and its persistent connections.

Failure behavior:

* SIGTERM → graceful: the current batch is finished and posted, the
  worker deregisters (releasing nothing — its leases are complete) and
  exits 0;
* SIGKILL or a crash (including injected ``REPRO_FAULTS`` kills, which
  the worker's simulator inherits from its environment) → the
  heartbeats stop, the coordinator expires the leases, and the tasks
  are re-dispatched elsewhere;
* a coordinator restart → requests fail with ``UnknownWorker`` (409)
  and the worker silently re-registers under a fresh id;
* an unreachable coordinator → capped-backoff reconnection, forever
  (workers are cattle; the supervisor decides when to give up).

``run_supervised`` implements ``repro worker --respawn``: a parent
process that restarts the worker child whenever it dies abnormally —
the distributed analogue of the process pool healing its workers.
"""

from __future__ import annotations

import signal
import subprocess
import sys
import threading
import time
from typing import Any, Dict, List, Optional

from repro.api.design import Design
from repro.api.result import SimOptions, SimResult
from repro.api.simulator import Simulator
from repro.serve.client import ServeClient, ServeError

#: Idle poll bounds while the queue has nothing to claim.
IDLE_POLL_MIN_S = 0.02
IDLE_POLL_MAX_S = 0.5

#: Reconnect backoff bounds while the coordinator is unreachable.
RECONNECT_MIN_S = 0.1
RECONNECT_MAX_S = 5.0

#: Tasks requested per claim.  Small enough that a mid-batch death
#: strands few leases, large enough that claim round-trips do not
#: dominate sub-millisecond simulations.
DEFAULT_BATCH_SIZE = 32


class DispatchWorker:
    """One pull-based worker process attached to a coordinator."""

    def __init__(self, url: str, *,
                 batch_size: int = DEFAULT_BATCH_SIZE,
                 cache_dir: Optional[str] = None,
                 executor: str = "inline",
                 announce: bool = True) -> None:
        self.client = ServeClient.from_url(url)
        self.batch_size = max(int(batch_size), 1)
        self.announce = announce
        simulator_kwargs: Dict[str, Any] = {"executor": executor}
        if cache_dir is not None:
            simulator_kwargs["cache_dir"] = cache_dir
        self.simulator = Simulator(**simulator_kwargs)
        self.worker_id: Optional[str] = None
        self.heartbeat_s = 5.0
        self._stop = threading.Event()
        self._in_progress_lock = threading.Lock()
        self._in_progress: List[str] = []
        self._stats = {"claimed": 0, "completed": 0, "batches": 0,
                       "reconnects": 0, "reregistrations": 0}

    # --- protocol plumbing ------------------------------------------------

    def _say(self, message: str) -> None:
        if self.announce:
            print(f"repro worker: {message}", flush=True)

    def _register(self) -> None:
        import os
        grant = self.client._request(
            "POST", "/dispatch/register",
            {"pid": os.getpid(), "executor": "inline"})
        if self.worker_id is not None:
            self._stats["reregistrations"] += 1
        self.worker_id = grant["worker_id"]
        self.heartbeat_s = float(grant["heartbeat_s"])
        self._say(f"registered as {self.worker_id} "
                  f"(lease ttl {grant['lease_ttl_s']:g}s, "
                  f"heartbeat {self.heartbeat_s:g}s)")

    def _heartbeat_loop(self) -> None:
        while not self._stop.wait(self.heartbeat_s):
            worker_id = self.worker_id
            if worker_id is None:
                continue
            with self._in_progress_lock:
                held = list(self._in_progress)
            try:
                self.client._request("POST", "/dispatch/heartbeat",
                                     {"worker_id": worker_id,
                                      "task_ids": held})
            except (ServeError, OSError):
                # A lost beat is survivable (three are not); the main
                # loop owns re-registration and reconnection.
                pass

    def stop(self) -> None:
        """Request a graceful exit after the current batch."""
        self._stop.set()

    # --- task execution ---------------------------------------------------

    def _execute(self, task: Dict[str, Any]) -> SimResult:
        """Run one leased task, with local transient retries.

        The coordinator's ``attempt`` is the base fed to the fault
        injector so a task re-dispatched after a lease expiry is a
        *retry* there (deterministic ``kill_rate`` faults spare it);
        local transient retries stack on top.
        """
        return self.simulator._run_attempts(
            Design.from_dict(task["design"]),
            SimOptions.from_dict(task["options"]), task["task_id"],
            base_attempt=int(task.get("attempt", 0)), probe_disk=True)

    # --- the pull loop ----------------------------------------------------

    def run(self) -> Dict[str, Any]:
        """Claim-execute-complete until stopped; returns a summary."""
        started = time.monotonic()
        heartbeats = threading.Thread(target=self._heartbeat_loop,
                                      name="repro-worker-heartbeat",
                                      daemon=True)
        heartbeats.start()
        idle_poll = IDLE_POLL_MIN_S
        reconnect = RECONNECT_MIN_S
        try:
            while not self._stop.is_set():
                if self.worker_id is None:
                    try:
                        self._register()
                        reconnect = RECONNECT_MIN_S
                    except (ServeError, OSError):
                        self._stats["reconnects"] += 1
                        self._stop.wait(reconnect)
                        reconnect = min(reconnect * 2, RECONNECT_MAX_S)
                        continue
                try:
                    tasks = self.client._request(
                        "POST", "/dispatch/claim",
                        {"worker_id": self.worker_id,
                         "max_tasks": self.batch_size})["tasks"]
                except ServeError as error:
                    if error.error_type == "UnknownWorker":
                        self.worker_id = None  # coordinator restarted
                        continue
                    raise
                except OSError:
                    self._stats["reconnects"] += 1
                    self._stop.wait(reconnect)
                    reconnect = min(reconnect * 2, RECONNECT_MAX_S)
                    continue
                reconnect = RECONNECT_MIN_S
                if not tasks:
                    self._stop.wait(idle_poll)
                    idle_poll = min(idle_poll * 2, IDLE_POLL_MAX_S)
                    continue
                idle_poll = IDLE_POLL_MIN_S
                self._run_batch(tasks)
        finally:
            self._stop.set()
            self._deregister()
            self.client.close()
        summary = dict(self._stats)
        summary["worker_id"] = self.worker_id
        summary["elapsed_s"] = round(time.monotonic() - started, 3)
        return summary

    def _run_batch(self, tasks: List[Dict[str, Any]]) -> None:
        with self._in_progress_lock:
            self._in_progress = [task["task_id"] for task in tasks]
        self._stats["claimed"] += len(tasks)
        self._stats["batches"] += 1
        results = []
        try:
            for task in tasks:
                result = self._execute(task)
                results.append({"task_id": task["task_id"],
                                "result": result.to_dict()})
        finally:
            # Post whatever finished even when stopping mid-batch (or
            # when one task raised): completed work must not wait for a
            # lease expiry to be rediscovered.
            posted = self._post_results(results)
            with self._in_progress_lock:
                self._in_progress = []
            if posted:
                self._stats["completed"] += posted

    def _post_results(self, results: List[Dict[str, Any]]) -> int:
        if not results:
            return 0
        try:
            accepted = self.client._request(
                "POST", "/dispatch/complete",
                {"worker_id": self.worker_id,
                 "results": results})["accepted"]
            return int(accepted)
        except ServeError as error:
            if error.error_type == "UnknownWorker":
                # Coordinator restarted mid-batch: these leases are
                # gone; the new incarnation will re-dispatch the tasks.
                self.worker_id = None
                return 0
            raise
        except OSError:
            # One bounded retry after a beat; then let the leases
            # expire and the tasks re-dispatch.
            self._stop.wait(min(self.heartbeat_s, 1.0))
            try:
                accepted = self.client._request(
                    "POST", "/dispatch/complete",
                    {"worker_id": self.worker_id,
                     "results": results})["accepted"]
                return int(accepted)
            except (ServeError, OSError):
                return 0

    def _deregister(self) -> None:
        if self.worker_id is None:
            return
        try:
            self.client._request("POST", "/dispatch/deregister",
                                 {"worker_id": self.worker_id})
            self._say(f"{self.worker_id} deregistered")
        except (ServeError, OSError):
            pass  # the coordinator will expire whatever we held


def run_worker(url: str, *, batch_size: int = DEFAULT_BATCH_SIZE,
               cache_dir: Optional[str] = None,
               announce: bool = True) -> Dict[str, Any]:
    """CLI body of ``repro worker``: run until SIGTERM/SIGINT.

    Installs signal handlers (main thread only) that request a graceful
    stop — finish the batch, post results, deregister.
    """
    worker = DispatchWorker(url, batch_size=batch_size,
                            cache_dir=cache_dir, announce=announce)
    installed = []
    if threading.current_thread() is threading.main_thread():
        def _graceful(signum, frame):  # noqa: ARG001
            worker.stop()
        for signum in (signal.SIGTERM, signal.SIGINT):
            try:
                installed.append((signum, signal.signal(signum,
                                                        _graceful)))
            except (ValueError, OSError):
                pass
    try:
        return worker.run()
    finally:
        for signum, previous in installed:
            try:
                signal.signal(signum, previous)
            except (ValueError, OSError):
                pass


def run_supervised(argv: List[str], announce: bool = True) -> int:
    """``repro worker --respawn``: restart the child when it dies badly.

    Remote workers have no pool above them to heal a crash (injected
    ``REPRO_FAULTS`` kills included), so the supervisor is that layer:
    a child exiting non-zero is relaunched after a short pause; a clean
    exit (graceful SIGTERM path) ends the loop.  SIGTERM to the
    supervisor is forwarded to the child, so the pair tears down as one
    unit.
    """
    command = [sys.executable, "-m", "repro", "worker", *argv]
    stopping = threading.Event()
    child: List[Optional[subprocess.Popen]] = [None]

    def _forward(signum, frame):  # noqa: ARG001
        stopping.set()
        current = child[0]
        if current is not None and current.poll() is None:
            current.terminate()

    installed = []
    if threading.current_thread() is threading.main_thread():
        for signum in (signal.SIGTERM, signal.SIGINT):
            try:
                installed.append((signum, signal.signal(signum,
                                                        _forward)))
            except (ValueError, OSError):
                pass
    respawns = 0
    try:
        while True:
            child[0] = subprocess.Popen(command)
            code = child[0].wait()
            if code == 0 or stopping.is_set():
                return 0 if stopping.is_set() else code
            respawns += 1
            if announce:
                print(f"repro worker: child exited {code}; "
                      f"respawn #{respawns}", flush=True)
            if stopping.wait(0.2):
                return 0
    finally:
        for signum, previous in installed:
            try:
                signal.signal(signum, previous)
            except (ValueError, OSError):
                pass
