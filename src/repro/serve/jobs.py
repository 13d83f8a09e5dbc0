"""The daemon's multi-tenant job queue over one shared simulator session.

Every job a ``repro serve`` process accepts — single-design runs and
whole explorations alike — flows through one :class:`JobQueue`: an
``asyncio.Queue`` drained by a bounded set of worker tasks, each of
which ships the blocking simulation work to a dedicated thread pool
while the event loop keeps answering status polls.  All jobs execute
against **one** :class:`repro.api.Simulator`, so its persistent worker
pools, two-tier result cache, and pass memos are shared across every
client of the daemon; concurrent submitters warming each other's cache
is the whole point.

Lifecycle: ``queued -> running -> done | failed | cancelled``.  Queued
jobs cancel instantly; running explore jobs cancel at their next chunk
boundary via :class:`repro.explore.ExplorationInterrupted`.  Shutdown
(:meth:`JobQueue.close`) flushes everything still in flight to a
terminal state before the session itself is closed.
"""

from __future__ import annotations

import asyncio
import enum
import itertools
import threading
import time
from collections import OrderedDict
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Dict, List, Optional, Tuple

from repro.api.design import Design
from repro.api.result import SimOptions
from repro.api.simulator import Simulator
from repro.exceptions import CamJError
from repro.explore.engine import (ENGINE_COUNTERS, ExplorationInterrupted,
                                  explore_stream)
from repro.explore.spec import ExplorationSpec
from repro.serve.journal import JobJournal
from repro.serve.progress import JobProgress, StreamBuffer

#: How many simulation points one explore chunk covers by default: the
#: cancellation latency / progress granularity vs batching trade-off.
DEFAULT_CHUNK_SIZE = 8

#: Default width of the daemon's job-execution thread pool.
DEFAULT_WORKERS = 2

#: Terminal-job retention bound: oldest finished jobs are forgotten
#: once the registry outgrows this (running/queued jobs never are).
DEFAULT_JOBS_KEPT = 512


def _job_number(job_id: str) -> int:
    """The counter behind a ``job-NNNNNN`` id (0 for foreign ids)."""
    _, _, digits = job_id.partition("-")
    try:
        return int(digits)
    except ValueError:
        return 0


class JobState(enum.Enum):
    """Where in its lifecycle a job is."""

    QUEUED = "queued"
    RUNNING = "running"
    DONE = "done"
    FAILED = "failed"
    CANCELLED = "cancelled"


#: States a job never leaves.
TERMINAL_STATES = frozenset(
    {JobState.DONE, JobState.FAILED, JobState.CANCELLED})


class QueueClosed(RuntimeError):
    """Submission after the queue began shutting down."""


class Job:
    """One unit of daemon work and everything observers may ask of it.

    ``kind`` is ``"run"`` (one design, one :class:`SimOptions`),
    ``"explore"`` (an :class:`ExplorationSpec`), or ``"robust"`` (a
    :class:`~repro.robust.spec.RobustSpec`).  Mutable state is
    guarded by ``lock``; ``stream`` carries the incremental event log
    the JSONL/SSE endpoints replay.
    """

    def __init__(self, job_id: str, kind: str, name: str,
                 payload: Any) -> None:
        self.id = job_id
        self.kind = kind
        self.name = name
        self.payload = payload
        self.state = JobState.QUEUED
        self.progress = JobProgress()
        self.result: Optional[Dict[str, Any]] = None
        self.error: Optional[Dict[str, str]] = None
        self.cancel_requested = False
        self.cancel_event = threading.Event()
        self.created_at = time.time()
        self.started_at: Optional[float] = None
        self.finished_at: Optional[float] = None
        #: Reentrant: the journal re-takes it to snapshot a terminal
        #: record while the transition still holds it.
        self.lock = threading.RLock()
        self.stream = StreamBuffer()

    def to_dict(self) -> Dict[str, Any]:
        """The job's status document (never includes the full result)."""
        with self.lock:
            return {
                "id": self.id,
                "kind": self.kind,
                "name": self.name,
                "state": self.state.value,
                "progress": self.progress.to_dict(),
                "error": dict(self.error) if self.error else None,
                "cancel_requested": self.cancel_requested,
                "created_at": self.created_at,
                "started_at": self.started_at,
                "finished_at": self.finished_at,
                "has_result": self.result is not None,
            }


class JobQueue:
    """Async job queue sharing one :class:`Simulator` across all jobs.

    Construct it anywhere, :meth:`start` it on the event loop that will
    own it.  ``submit_*``/``cancel``/``get`` are called from that loop
    (the HTTP handlers); job execution mutates state from worker
    threads under each job's lock.
    """

    def __init__(self, simulator: Simulator, *,
                 workers: int = DEFAULT_WORKERS,
                 chunk_size: int = DEFAULT_CHUNK_SIZE,
                 max_jobs_kept: int = DEFAULT_JOBS_KEPT,
                 journal: Optional[JobJournal] = None) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if chunk_size < 1:
            raise ValueError(f"chunk_size must be >= 1, got {chunk_size}")
        self.simulator = simulator
        self.workers = workers
        self.chunk_size = chunk_size
        self.journal = journal
        self._recovery: Optional[Dict[str, int]] = None
        self._max_jobs_kept = max_jobs_kept
        self._jobs: "OrderedDict[str, Job]" = OrderedDict()
        self._engine_totals: Dict[str, int] = dict.fromkeys(
            ENGINE_COUNTERS, 0)
        self._registry_lock = threading.Lock()
        self._counter = itertools.count(1)
        self._queue: Optional["asyncio.Queue[Optional[Job]]"] = None
        self._tasks: List["asyncio.Task"] = []
        self._executor: Optional[ThreadPoolExecutor] = None
        self._accepting = False

    # --- lifecycle --------------------------------------------------------

    async def start(self) -> None:
        """Create the queue and worker tasks on the running loop."""
        self._queue = asyncio.Queue()
        self._executor = ThreadPoolExecutor(
            max_workers=self.workers, thread_name_prefix="repro-serve-job")
        self._tasks = [asyncio.create_task(self._worker())
                       for _ in range(self.workers)]
        self._accepting = True

    async def close(self) -> None:
        """Flush every live job to a terminal state and stop the workers.

        Queued jobs become ``cancelled`` immediately; running jobs get
        their cancel flag and reach ``cancelled`` (or ``done``, if they
        beat the flag) at the next chunk boundary.  Idempotent.
        """
        self._accepting = False
        for job in self.jobs():
            self.cancel(job.id)
        if self._queue is not None:
            for _ in self._tasks:
                self._queue.put_nowait(None)
        if self._tasks:
            await asyncio.gather(*self._tasks, return_exceptions=True)
            self._tasks = []
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None

    # --- submission and observation ---------------------------------------

    def submit_run(self, design: Design, options: SimOptions) -> Job:
        """Enqueue one ``(design, options)`` simulation."""
        return self._submit("run", design.name, (design, options))

    def submit_explore(self, spec: ExplorationSpec) -> Job:
        """Enqueue one whole exploration."""
        name = spec.name if spec.name is not None else spec.usecase
        return self._submit("explore", name, spec)

    def submit_robust(self, spec: "RobustSpec") -> Job:  # noqa: F821
        """Enqueue one robustness study (Monte Carlo, corners, ...)."""
        return self._submit("robust", spec.display_name, spec)

    def _submit(self, kind: str, name: str, payload: Any) -> Job:
        if not self._accepting or self._queue is None:
            raise QueueClosed("job queue is not accepting submissions")
        job = Job(f"job-{next(self._counter):06d}", kind, name, payload)
        if self.journal is not None:
            # Write-ahead: the submission is durable before it is
            # acknowledged, so an accepted job survives any crash.
            self.journal.record_submit(job)
        with self._registry_lock:
            self._jobs[job.id] = job
            self._evict_old_terminal()
        self._queue.put_nowait(job)
        return job

    def get(self, job_id: str) -> Optional[Job]:
        with self._registry_lock:
            return self._jobs.get(job_id)

    def jobs(self) -> List[Job]:
        with self._registry_lock:
            return list(self._jobs.values())

    def engine_totals(self) -> Dict[str, int]:
        """Lifetime explore-engine point tallies across finished jobs."""
        with self._registry_lock:
            return dict(self._engine_totals)

    def cancel(self, job_id: str) -> Job:
        """Request cancellation; queued jobs finish immediately.

        Cancelling a terminal job is a no-op.  Raises ``KeyError`` for
        unknown ids.
        """
        job = self.get(job_id)
        if job is None:
            raise KeyError(job_id)
        finish_now = False
        with job.lock:
            if job.state in TERMINAL_STATES:
                return job
            job.cancel_requested = True
            job.cancel_event.set()
            if job.state is JobState.QUEUED:
                job.state = JobState.CANCELLED
                job.finished_at = time.time()
                self._journal_terminal(job)
                finish_now = True
        if finish_now:
            self._seal_stream(job)
            self._compact_journal()
        return job

    def counts(self) -> Dict[str, int]:
        """How many known jobs sit in each state."""
        counts = {state.value: 0 for state in JobState}
        for job in self.jobs():
            counts[job.state.value] += 1
        return counts

    @property
    def depth(self) -> int:
        """Jobs admitted but not yet picked up by a worker."""
        return self._queue.qsize() if self._queue is not None else 0

    def _evict_old_terminal(self) -> None:
        """Forget the oldest finished jobs beyond the retention bound.

        Must be called under ``_registry_lock``.  Live jobs are never
        evicted, so a burst of active work can exceed the bound.
        """
        excess = len(self._jobs) - self._max_jobs_kept
        if excess <= 0:
            return
        for job_id in [job_id for job_id, job in self._jobs.items()
                       if job.state in TERMINAL_STATES][:excess]:
            del self._jobs[job_id]

    # --- execution --------------------------------------------------------

    async def _worker(self) -> None:
        """One drain loop: pop, execute in the thread pool, repeat."""
        loop = asyncio.get_running_loop()
        while True:
            job = await self._queue.get()
            if job is None:  # shutdown sentinel
                return
            with job.lock:
                if job.state is not JobState.QUEUED:
                    continue  # cancelled while waiting
                job.state = JobState.RUNNING
                job.started_at = time.time()
            await loop.run_in_executor(self._executor, self._execute, job)

    def _execute(self, job: Job) -> None:
        """Blocking job body (worker thread); never raises."""
        try:
            if job.cancel_event.is_set():
                self._finish(job, JobState.CANCELLED)
            elif job.kind == "run":
                self._execute_run(job)
            elif job.kind == "robust":
                self._execute_robust(job)
            else:
                self._execute_explore(job)
        except ExplorationInterrupted:
            self._finish(job, JobState.CANCELLED)
        except CamJError as error:
            self._finish(job, JobState.FAILED,
                         error={"type": type(error).__name__,
                                "message": str(error)})
        except Exception as error:  # never kill the worker task
            self._finish(job, JobState.FAILED,
                         error={"type": type(error).__name__,
                                "message": str(error)})

    def _execute_run(self, job: Job) -> None:
        design, options = job.payload
        with job.lock:
            job.progress.total = 1
        result = self.simulator.run(design, options)
        with job.lock:
            job.progress.completed = 1
            if result.cached:
                job.progress.cache_hits = 1
        payload = result.to_dict()
        job.stream.append({"event": "result", "result": payload})
        self._finish(job, JobState.DONE, result=payload)

    def _execute_explore(self, job: Job) -> None:
        spec: ExplorationSpec = job.payload
        try:
            with job.lock:
                job.progress.total = len(spec.space)
        except TypeError:
            pass  # unsized space: total arrives with the first chunk

        def on_progress(points, completed, total, cache_hits):
            with job.lock:
                job.progress.total = total
                job.progress.completed = completed
                job.progress.cache_hits += cache_hits
            for point in points:
                job.stream.append({"event": "point",
                                   "point": point.to_dict()})

        result = explore_stream(
            spec.space, spec.usecase, objectives=spec.objectives,
            options=spec.options, simulator=self.simulator,
            name=spec.name, chunk_size=self.chunk_size,
            on_progress=on_progress,
            should_stop=job.cancel_event.is_set,
            engine=spec.engine)
        with self._registry_lock:
            for counter, count in result.engines.items():
                self._engine_totals[counter] = \
                    self._engine_totals.get(counter, 0) + count
        self._finish(job, JobState.DONE, result=result.to_dict())

    def _execute_robust(self, job: Job) -> None:
        spec = job.payload  # a RobustSpec

        def on_progress(completed, total, cache_hits):
            with job.lock:
                job.progress.total = total
                job.progress.completed = completed
                job.progress.cache_hits += cache_hits
            job.stream.append({"event": "progress",
                               "completed": completed, "total": total})

        document = spec.run_document(
            simulator=self.simulator, chunk_size=self.chunk_size,
            on_progress=on_progress,
            should_stop=job.cancel_event.is_set)
        self._finish(job, JobState.DONE, result=document)

    def _finish(self, job: Job, state: JobState,
                result: Optional[Dict[str, Any]] = None,
                error: Optional[Dict[str, str]] = None) -> None:
        with job.lock:
            job.state = state
            job.result = result
            job.error = error
            job.finished_at = time.time()
            self._journal_terminal(job)
        self._seal_stream(job)
        self._compact_journal()

    def _seal_stream(self, job: Job) -> None:
        """Emit the terminal event and close the job's stream."""
        job.stream.append({"event": "done", "job": job.to_dict()})
        job.stream.close()

    def _journal_terminal(self, job: Job) -> None:
        """Durably record one terminal transition (if journaling).

        Called with ``job.lock`` held across the state change, so no
        status read, ``wait`` or stream sees a terminal job before its
        record is on disk.
        """
        if self.journal is not None:
            self.journal.record_terminal(job)

    def _compact_journal(self) -> None:
        """Compact the journal if enough appends have accumulated."""
        if self.journal is not None:
            self.journal.maybe_compact(self._max_jobs_kept)

    # --- restart recovery ---------------------------------------------------

    def recover(self) -> Optional[Dict[str, int]]:
        """Re-admit journaled work after a restart.

        Call once, after :meth:`start` and before accepting traffic.
        Jobs with a terminal record are restored — state, error, and
        result intact, so ``/jobs/<id>/result`` keeps working across
        the restart.  Jobs that were queued or running when the
        previous process died are re-enqueued **under their original
        ids** and re-run; with a shared disk cache the re-run is warm
        and the recovered results are bit-identical.  Journaled jobs
        whose spec can no longer be rebuilt fail with a typed error
        instead of vanishing.
        """
        if self.journal is None or self._queue is None:
            return None
        snapshots = self.journal.replay_jobs()
        summary = {"restored": 0, "requeued": 0, "unrecoverable": 0}
        max_seen = 0
        for job_id, snapshot in snapshots.items():
            number = _job_number(job_id)
            max_seen = max(max_seen, number)
            submit, state = snapshot["submit"], snapshot["state"]
            if state is not None:
                job = self._restore_terminal(submit, state)
                summary["restored"] += 1
            else:
                job = self._readmit(submit)
                if job.state is JobState.FAILED:
                    summary["unrecoverable"] += 1
                else:
                    summary["requeued"] += 1
            with self._registry_lock:
                self._jobs[job.id] = job
        self._counter = itertools.count(max_seen + 1)
        # Startup compaction: fold the replayed history (plus any
        # unrecoverable-job terminals just appended) into its bound.
        self.journal.compact(max_terminal=self._max_jobs_kept)
        self._recovery = summary
        return summary

    def _restore_terminal(self, submit: Dict[str, Any],
                          state: Dict[str, Any]) -> Job:
        """A finished job, rebuilt exactly as the journal remembers it."""
        job = Job(submit["id"], submit.get("kind", "run"),
                  submit.get("name", ""), None)
        job.created_at = submit.get("created_at", job.created_at)
        try:
            job.state = JobState(state.get("state"))
        except ValueError:
            job.state = JobState.FAILED
            job.error = {"type": "JournalError",
                         "message": f"unknown terminal state "
                                    f"{state.get('state')!r}"}
        else:
            job.result = state.get("result")
            error = state.get("error")
            job.error = dict(error) if error else None
        job.started_at = state.get("started_at")
        job.finished_at = state.get("finished_at")
        self._seal_stream(job)
        return job

    def _readmit(self, submit: Dict[str, Any]) -> Job:
        """Rebuild one interrupted job's payload and re-enqueue it."""
        kind = submit.get("kind", "run")
        job = Job(submit["id"], kind, submit.get("name", ""), None)
        job.created_at = submit.get("created_at", job.created_at)
        spec = submit.get("spec")
        try:
            if not isinstance(spec, dict):
                raise ValueError(
                    "job was journaled without a rebuildable spec")
            if kind == "run":
                job.payload = (Design.from_dict(spec["design"]),
                               SimOptions.from_dict(spec["options"]))
            elif kind == "robust":
                from repro.robust.spec import robust_spec_from_dict
                job.payload = robust_spec_from_dict(spec)
            else:
                from repro.explore.spec import exploration_spec_from_dict
                job.payload = exploration_spec_from_dict(spec)
        except Exception as error:  # noqa: BLE001 - journal may be stale
            with job.lock:
                job.state = JobState.FAILED
                job.error = {"type": type(error).__name__,
                             "message": str(error)}
                job.finished_at = time.time()
                self._journal_terminal(job)
            self._seal_stream(job)
            self._compact_journal()
            return job
        self._queue.put_nowait(job)
        return job

    def journal_info(self) -> Optional[Dict[str, Any]]:
        """Journal state for ``/stats``; ``None`` when not journaling."""
        if self.journal is None:
            return None
        payload = self.journal.info()
        payload["recovery"] = self._recovery
        return payload
