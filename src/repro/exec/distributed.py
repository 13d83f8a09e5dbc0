"""The ``distributed`` executor: batches sharded to remote workers.

A :class:`DistributedExecutor` turns one ``run_many`` batch into tasks
on a :class:`~repro.exec.queue.WorkQueue`, then harvests outcomes as
``repro worker`` processes claim, execute, and complete them over the
dispatch HTTP endpoints.  The executor never talks HTTP itself — it
shares the queue object with the serve transport — so the same
instance can serve many concurrent batches (the serve daemon's job
workers all submit through one shared session).

Robustness model (see :mod:`repro.exec.queue` for the lease protocol):

* lease expiries surface here as re-dispatches the executor counts in
  ``BatchStats.lease_expiries``; a task quarantined after
  :data:`~repro.resilience.policy.QUARANTINE_THRESHOLD` expiries comes
  back as a typed :class:`~repro.exceptions.WorkerCrashError` result —
  a poison task fails loudly instead of cycling forever;
* the coordinator **degrades to local execution** rather than hang: if
  no worker ever connects within the fallback window, or every
  registered worker has gone silent with no leases left to wait out,
  the still-pending tasks are withdrawn from the queue and run through
  the ordinary thread backend in-process;
* completed results are stored to the session's *memory* cache tier
  only — the worker already wrote the shared disk tier, and writing it
  again from the coordinator would double the I/O on every point.
"""

from __future__ import annotations

import threading
import time
from dataclasses import replace
from typing import Any, Dict, Optional

from repro.api.result import SimResult
from repro.exec.base import SimulationExecutor, quarantined_result
from repro.exec.local import ThreadExecutor
from repro.exec.queue import WorkQueue

#: How long the harvest loop sleeps between progress checks.  Wakeups
#: also arrive via the queue's condition on every completion, so this
#: bounds only the latency of lease-expiry sweeps.
POLL_S = 0.05


class DistributedExecutor(SimulationExecutor):
    """Execute batches through a lease-based remote work queue.

    Not name-registered: it needs its :class:`WorkQueue`, so sessions
    receive it as an instance — ``Simulator(executor=
    DistributedExecutor(queue))`` — which is exactly what
    ``repro serve --dispatch`` builds.

    ``fallback_after_s`` is the patience for the *first* worker to
    connect before batches degrade to local execution (default: one
    lease TTL).  Once any worker has registered, fallback instead
    triggers when no live worker remains and no outstanding lease is
    left to wait out.
    """

    name = "distributed"
    requires_serializable = True

    def __init__(self, queue: WorkQueue, *,
                 fallback_after_s: Optional[float] = None,
                 poll_s: float = POLL_S) -> None:
        self.queue = queue
        if fallback_after_s is None:
            fallback_after_s = queue.lease_ttl_s
        self.fallback_after_s = float(fallback_after_s)
        self.poll_s = float(poll_s)
        self._local = ThreadExecutor()
        self._lock = threading.Lock()
        self._batch_seq = 0
        self._no_worker_deadline: Optional[float] = None

    def describe(self) -> Dict[str, Any]:
        doc = super().describe()
        doc["dispatch"] = self.queue.describe()
        return doc

    def pool_widths(self) -> Dict[str, int]:
        return self._local.pool_widths()

    def close(self, wait: bool = True, *,
              cancel_pending: bool = False) -> None:
        self._local.close(wait, cancel_pending=cancel_pending)

    def run_pending(self, session, pending, max_workers, worker_ids,
                    counters) -> Dict[Any, SimResult]:
        with self._lock:
            batch = self._batch_seq
            self._batch_seq += 1
            if self._no_worker_deadline is None:
                self._no_worker_deadline = (time.monotonic()
                                            + self.fallback_after_s)
        session._count_misses(len(pending))

        by_id: Dict[str, Any] = {}
        tasks = []
        for index, (key, (design, resolved)) in enumerate(pending.items()):
            task_id = f"b{batch}-{index}"
            by_id[task_id] = key
            tasks.append({"task_id": task_id,
                          "design": design.to_dict(),
                          "options": resolved.to_dict(),
                          "design_hash": key[0],
                          "attempt": 0})
        self.queue.enqueue(tasks)

        outcomes: Dict[Any, SimResult] = {}
        unresolved = set(by_id)
        while unresolved:
            expired = self.queue.expire_leases()
            if expired:
                counters.add("lease_expiries", expired)
            harvested = self.queue.collect(list(unresolved))
            for task_id, outcome in harvested.items():
                key = by_id[task_id]
                design, resolved = pending[key]
                outcomes[key] = self._settle(session, key, design,
                                             resolved, outcome,
                                             worker_ids, counters)
                unresolved.discard(task_id)
            if not unresolved:
                break
            if harvested or expired:
                continue  # more may already be ready — do not sleep yet
            if self._should_fall_back():
                reclaimed = self.queue.withdraw(list(unresolved))
                if reclaimed:
                    local = {by_id[doc["task_id"]]:
                             pending[by_id[doc["task_id"]]]
                             for doc in reclaimed}
                    outcomes.update(self._local.run_pending(
                        session, local, max_workers, worker_ids,
                        counters))
                    unresolved.difference_update(
                        doc["task_id"] for doc in reclaimed)
                    continue
            self.queue.wait_progress(self.poll_s)
        return outcomes

    def _settle(self, session, key, design, resolved, outcome,
                worker_ids, counters) -> SimResult:
        if outcome["state"] == "done":
            worker_ids.add(outcome["worker"])
            result = replace(SimResult.from_dict(outcome["result"]),
                             design_hash=key[0])
            # Memory tier only: the worker wrote the shared disk tier
            # before completing its lease.
            session._store(key, result, disk=False)
            return result
        counters.add("quarantined")
        return quarantined_result(
            design, resolved, key[0],
            f"lost {outcome['strikes']} lease(s) to dead workers")

    def _should_fall_back(self) -> bool:
        """Whether still-pending tasks should run locally instead.

        Never-connected: past the fallback window with zero
        registrations, every batch runs locally until a worker shows
        up.  Stranded: the fleet went silent (no live heartbeats) and
        no lease is left whose expiry could change that — waiting any
        longer cannot make progress, so the coordinator finishes the
        work itself.  Either way ``run_many`` cannot hang.
        """
        now = time.monotonic()
        if not self.queue.ever_registered:
            return now >= (self._no_worker_deadline or now)
        return (self.queue.live_workers(now) == 0
                and self.queue.outstanding_leases() == 0)
