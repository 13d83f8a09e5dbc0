"""The simulator session: cached, parallel execution of designs.

A :class:`Simulator` carries a default :class:`~repro.api.result.SimOptions`
and turns :class:`~repro.api.design.Design` values into structured
:class:`~repro.api.result.SimResult` outcomes.  :meth:`Simulator.run_many`
hands a batch to the session's execution backend and deduplicates
identical ``(design, options)`` jobs through a two-tier result cache:
an in-memory tier always, plus an opt-in disk tier
(``Simulator(cache_dir=...)`` or the ``REPRO_CACHE_DIR`` environment
variable) that keeps results warm across processes and CLI invocations.
The memory tier holds one :class:`SimResult` per key, and the column
blocks (:class:`~repro.api.result.ResultBlock`) of
:meth:`Simulator.run_block`, one per group of points the vectorized
explore path evaluates.  A single run and a block go through one
engine call (:func:`~repro.sim.simulator._simulate_graph`, given one
operating point or columns of them).

The execution backend owns its worker pool: created lazily on the
first batch that needs one and reused for every batch after it —
``explore()`` over many batches pays pool startup once.
``Simulator.close()`` (or using the session as a context manager)
releases the workers; a closed session stays usable and the backend
simply recreates its pool on demand.
"""

from __future__ import annotations

import os
import threading
import time
import warnings
from collections import OrderedDict, deque
from dataclasses import dataclass, replace
from typing import (Any, Deque, Dict, Iterable, List, Optional, Sequence,
                    Tuple, Union)

import repro.exec  # noqa: F401  (registers the built-in executor backends)
from repro.api.design import Design
from repro.api.diskcache import (CACHE_DIR_ENV, DiskResultCache,
                                 default_cache_dir)
from repro.api.result import (OptionColumns, ResultBlock, SimOptions,
                               SimResult)
from repro.exceptions import (CamJError, ConfigurationError,
                              SerializationError)
from repro.exec.base import UNCACHED, SimulationExecutor, cacheable_result
from repro.exec.registry import resolve_executor
from repro.resilience.faults import get_injector
from repro.resilience.policy import RetryPolicy
from repro.sim.simulator import PassCounters, PassMemo, _simulate_graph

#: One batch item: a bare design (session options apply) or an explicit
#: ``(design, options)`` pair.
BatchItem = Union[Design, Tuple[Design, SimOptions]]

#: The resilience events a batch tallies (the counter fields of
#: :class:`BatchStats`).
_RESILIENCE_EVENTS = ("retries", "timeouts", "pool_rebuilds",
                      "quarantined", "lease_expiries")

#: Sentinel for "no cache_dir argument given": fall back to
#: ``REPRO_CACHE_DIR``.
_UNSET = object()

#: How many designs' pass memos one session keeps (LRU).  A memo holds
#: the design-only pass outputs — timeline, analog usage, communication
#: entries — which is what makes option sweeps incremental.
_PASS_MEMO_LIMIT = 256

#: Upper bound on the rows of all column blocks the vectorized explore
#: path publishes (see :meth:`Simulator.offer_results`); the oldest
#: blocks are dropped whole first — their rows can always be re-simulated.
_BLOCK_ROW_LIMIT = 65536


@dataclass(frozen=True)
class BatchStats:
    """What the last :meth:`Simulator.run_many` call actually did.

    ``cache_hits`` counts this batch's own warm lookups (one per unique
    key served from either cache tier), never hits that concurrent
    ``run()`` callers score against the shared session counters while
    the batch is in flight.  ``workers_used`` counts the distinct pool
    workers that executed at least one job, plus the calling thread when
    it ran unserializable jobs inline; a batch served entirely from the
    result cache reports exactly 0 because no pool is touched for it.

    ``retries``/``timeouts``/``pool_rebuilds``/``quarantined`` are the
    batch's resilience events: transient-failure re-runs, per-task
    deadline expiries, process-pool heals after a worker death, and
    designs failed with a typed
    :class:`~repro.exceptions.WorkerCrashError` after repeatedly
    killing workers.  ``lease_expiries`` counts distributed-executor
    leases that timed out and were re-dispatched (a remote worker died
    or stalled mid-task).  All zero on a healthy batch.
    """

    total: int
    unique: int
    cache_hits: int
    max_workers: int
    workers_used: int
    elapsed_s: float
    retries: int = 0
    timeouts: int = 0
    pool_rebuilds: int = 0
    quarantined: int = 0
    lease_expiries: int = 0


@dataclass(frozen=True)
class CacheInfo:
    """Result-cache counters of one simulator session.

    ``hits``/``misses``/``size`` describe the session (memory tier plus
    any disk-tier hits it absorbed); the ``disk_*`` fields describe the
    persistent tier and stay zero when no ``cache_dir`` is configured.
    ``size`` counts the memory tier's single results plus every row of
    its column blocks: a vector-explored point counts once, from the
    group that evaluated it, however often it is served.
    ``disk_errors``/``disk_disabled`` report graceful degradation: I/O
    incidents the tier absorbed, and whether they downgraded the
    session to memory-only.
    """

    hits: int
    misses: int
    size: int
    disk_hits: int = 0
    disk_misses: int = 0
    disk_evictions: int = 0
    disk_entries: int = 0
    disk_bytes: int = 0
    disk_errors: int = 0
    disk_disabled: bool = False


class Simulator:
    """A simulation session over :class:`Design` values.

    Parameters
    ----------
    options:
        Session-default options; ``None`` means ``SimOptions()``.
    max_workers:
        Worker-pool width for :meth:`run_many`.  Defaults to
        ``min(len(batch), max(2, os.cpu_count()))``; the persistent
        pool grows to the widest batch seen.
    cache:
        Enable per-design result caching keyed by
        ``(design.content_hash, options)``.  Designs containing custom,
        unserializable parts are simulated but never cached.
    executor:
        The batch execution backend: a registered name or a
        :class:`~repro.exec.SimulationExecutor` instance.  ``"thread"``
        (the default) runs jobs on the calling thread while their mean
        wall time stays within ``sys.getswitchinterval()`` — CamJ runs
        hold the GIL, and a job that short ends before another thread
        could take the GIL, so a pool cannot overlap it — and sends the
        rest of the batch to a thread pool once the mean goes over, or
        every job when the session has a per-task deadline; ``"process"``
        ships each design's serialized payload to a
        :class:`~concurrent.futures.ProcessPoolExecutor` worker, which
        sidesteps the GIL for CPU-bound batches on multi-core machines;
        ``"inline"`` runs sequentially in the calling thread.  The
        backend owns its pool, created once and reused across batches;
        process workers keep their initializer state (warmed imports)
        for the lifetime of the pool.  ``None`` defers to the
        ``REPRO_EXECUTOR`` environment variable, falling back to
        ``"thread"``.  Backends needing construction arguments (the
        ``distributed`` executor takes its work queue) are passed as
        instances.
    cache_dir:
        Directory of the persistent result-cache tier.  Unset: honor
        the ``REPRO_CACHE_DIR`` environment variable.  ``None``: disk
        tier off even when the variable is set.
    cache_max_bytes:
        Size bound of the disk tier (LRU-evicted); ``None`` means the
        :data:`repro.api.diskcache.DEFAULT_MAX_BYTES` default.
    retry:
        The session's :class:`~repro.resilience.RetryPolicy` — per-task
        deadlines, transient-failure retries with capped exponential
        backoff, timeout handling.  ``None`` uses
        :meth:`RetryPolicy.from_env` (environment-tunable defaults).

    The session is thread-safe: ``run`` may be called concurrently,
    which is exactly what ``run_many`` does.  Sessions are context
    managers — ``with Simulator() as sim: ...`` shuts the backend's
    worker pool down on exit.
    """

    def __init__(self, options: Optional[SimOptions] = None, *,
                 max_workers: Optional[int] = None,
                 cache: bool = True,
                 executor: Union[str, SimulationExecutor, None] = None,
                 cache_dir: Any = _UNSET,
                 cache_max_bytes: Optional[int] = None,
                 retry: Optional[RetryPolicy] = None):
        if max_workers is not None and max_workers < 1:
            raise ConfigurationError(
                f"max_workers must be >= 1, got {max_workers}")
        self.options = options if options is not None else SimOptions()
        self._max_workers = max_workers
        self._executor = resolve_executor(executor)
        self._cache_enabled = cache
        self._cache: Dict[Tuple[str, SimOptions], SimResult] = {}
        self._cache_hits = 0
        self._cache_misses = 0
        #: Column blocks of the vectorized explore path, oldest first,
        #: and the same blocks by design hash (see :meth:`offer_results`).
        #: A by-hash list is replaced, never mutated, so probes read it
        #: without the lock.
        self._blocks: Deque[ResultBlock] = deque()
        self._blocks_by_hash: Dict[str, List[ResultBlock]] = {}
        self._block_rows = 0
        #: Design hashes with at least one memory-tier entry, grow-only
        #: (conservative: a stale member only costs a real probe).
        self._cache_hashes: set = set()
        env_derived = cache_dir is _UNSET
        if env_derived:
            cache_dir = default_cache_dir()
        self._disk_cache = None
        if cache and cache_dir:
            try:
                self._disk_cache = DiskResultCache(
                    cache_dir, max_bytes=cache_max_bytes)
            except OSError as error:
                if not env_derived:
                    raise ConfigurationError(
                        f"cannot use cache_dir {cache_dir!s}: "
                        f"{error}") from error
                # An ambient REPRO_CACHE_DIR must not break sessions
                # that never asked for a disk tier: degrade to
                # memory-only and say so.
                warnings.warn(
                    f"disk result cache disabled — {CACHE_DIR_ENV}="
                    f"{cache_dir!s} is unusable: {error}",
                    RuntimeWarning, stacklevel=2)
        #: Content hashes whose pre-simulation checks already passed in
        #: this session: identical designs skip the check walk entirely.
        self._checked_hashes: set = set()
        #: Design-only pass outputs shared across every design with the
        #: same content hash (see repro.sim.simulator.SIM_PASSES).
        self._pass_memos: "OrderedDict[str, PassMemo]" = OrderedDict()
        self._pass_counters = PassCounters()
        self._retry = retry if retry is not None else RetryPolicy.from_env()
        #: Session-lifetime resilience counters (sums of BatchStats).
        self._resilience_totals = dict.fromkeys(_RESILIENCE_EVENTS, 0)
        self._lock = threading.Lock()
        self._terminal = False
        self.last_batch_stats: Optional[BatchStats] = None

    # --- session lifecycle ------------------------------------------------

    def close(self, wait: bool = True, *,
              cancel_pending: bool = False,
              terminal: bool = False) -> None:
        """Shut down the execution backend's persistent worker pool.

        Idempotent and safe to call from any thread, including
        concurrently with in-flight ``run_many`` batches (their
        already-submitted jobs drain before the pool dies).  Cached
        results, pass memos, and counters survive; by default the
        session stays usable — the next ``run_many`` simply recreates
        its pool.

        ``wait=False`` returns without joining the workers;
        ``cancel_pending=True`` additionally cancels jobs still queued
        inside the pool (interrupt paths use both so a dying process
        never drains a long queue).  ``terminal=True`` closes the
        session *permanently*: later batches raise instead of silently
        resurrecting pools — what a daemon wants after its final
        shutdown.  Cached single-design ``run()`` calls keep working
        either way; they never touch a pool.
        """
        if terminal:
            self._terminal = True
        self._executor.close(wait, cancel_pending=cancel_pending)

    @property
    def closed(self) -> bool:
        """Whether the session was terminally closed (see :meth:`close`)."""
        return self._terminal

    def pool_info(self) -> Dict[str, Any]:
        """Live worker-pool state, for daemons and dashboards."""
        widths = self._executor.pool_widths()
        return {
            "executor": self._executor.name,
            "max_workers": self._max_workers,
            "thread_pool_width": widths.get("thread", 0),
            "process_pool_width": widths.get("process", 0),
            "terminal": self._terminal,
        }

    def executor_info(self) -> Dict[str, Any]:
        """The session's execution backend, self-described.

        The ``distributed`` backend folds in its work-queue and worker
        liveness document; local backends report name and
        serializability only.
        """
        return self._executor.describe()

    def resilience_info(self) -> Dict[str, Any]:
        """Session-lifetime fault-tolerance counters and policy."""
        with self._lock:
            totals = dict(self._resilience_totals)
        totals["policy"] = {
            "max_attempts": self._retry.max_attempts,
            "base_delay_s": self._retry.base_delay_s,
            "max_delay_s": self._retry.max_delay_s,
            "timeout_s": self._retry.timeout_s,
        }
        return totals

    def __enter__(self) -> "Simulator":
        return self

    def __exit__(self, *exc_info) -> bool:
        self.close()
        return False

    # --- single runs ------------------------------------------------------

    def run(self, design: Design,
            options: Optional[SimOptions] = None) -> SimResult:
        """Simulate one design; failures come back as typed results.

        Framework errors (:class:`CamJError` subclasses — timing, stall,
        check, mapping failures) are captured into the result; genuine
        programming errors still propagate.
        """
        if not isinstance(design, Design):
            raise ConfigurationError(
                f"Simulator.run expects a Design, got "
                f"{type(design).__name__}; bundle the parts with "
                f"Design(stages, system, mapping)")
        resolved = options if options is not None else self.options
        return self._run_resolved(design, resolved, probe_disk=True)

    def _run_resolved(self, design: Design, options: SimOptions,
                      probe_disk: bool, attempt: int = 0) -> SimResult:
        """One job through the cache and the engine.

        ``probe_disk=False`` is the batch-worker path: ``run_many``
        already probed the disk tier for this key, so the worker checks
        only the memory tier (still needed to dedup against concurrent
        batches) instead of re-reading the same file.
        """
        key = self._job_key(design, options)
        if key is not None and self._cache_enabled:
            hit = self._probe_cache(key, probe_disk=probe_disk)
            if hit is not None:
                return replace(hit, cached=True)
        result = self._execute(design, options, key, attempt=attempt)
        if key is not None:
            self._store(key, result)
        return result

    def _run_attempts(self, design: Design, options: SimOptions,
                      backoff_key: Any, *, base_attempt: int = 0,
                      probe_disk: bool = False,
                      counters: Optional["_BatchCounters"] = None
                      ) -> SimResult:
        """One task through :meth:`_run_resolved`, retried per policy.

        The attempt loop of every backend.  The policy and the backoff
        count attempts from 0; ``base_attempt`` (a distributed task's
        leased attempt) is added only for the fault injector.
        ``probe_disk=False``: the batch already disk-probed the key.
        """
        policy = self._retry
        attempt = 0
        while True:
            result = self._run_resolved(design, options, probe_disk,
                                        attempt=base_attempt + attempt)
            if not policy.should_retry(attempt, result.error):
                return result
            if counters is not None:
                counters.add("retries")
            time.sleep(policy.backoff_s(attempt, backoff_key))
            attempt += 1

    def _execute(self, design: Design, options: SimOptions,
                 key: Optional[Tuple[str, SimOptions]],
                 attempt: int = 0) -> SimResult:
        started = time.perf_counter()
        design_hash = key[0] if key is not None else None
        try:
            # Fault-injection point: inert unless REPRO_FAULTS is set.
            # Raised transient faults are captured as typed results
            # below, exactly like organic CamJError failures.
            injector = get_injector()
            if injector.active:
                injector.before_task(design.name, design_hash, attempt)
            # Checks depend only on the design, so a design already
            # validated — this object (memoized) or an identical one in
            # this session (by content hash) — never re-walks them.
            if not options.skip_checks:
                self.ensure_design_checked(design, design_hash)
            report = self._simulate(design, design_hash, options.frame_rate,
                                    options.exposure_slots,
                                    options.cycle_accurate)
            return SimResult(design_name=design.name, options=options,
                             design_hash=design_hash, report=report,
                             elapsed_s=time.perf_counter() - started)
        except CamJError as error:
            return SimResult(design_name=design.name, options=options,
                             design_hash=design_hash, error=error,
                             elapsed_s=time.perf_counter() - started)

    def run_block(self, design: Design, design_hash: Optional[str],
                  group: OptionColumns
                  ) -> Tuple[Optional[ResultBlock], Dict[int, SimResult]]:
        """Simulate one design at a group of options with one engine call.

        ``group`` holds the points' options as columns, every row valid
        (see :meth:`OptionColumns.errors`) and none ``cycle_accurate``:
        the engine runs once for the whole group, on its frame-rate and
        exposure-slot columns.  Each point's outcome is what a cold
        :meth:`run` computes for it, but the cache is not probed (the
        caller did).  What the call computes is published: the points
        that simulated as one column block, which records ``group`` and
        the failed results by group position, and each failed point as
        a result under :meth:`run`'s rule.  Returns the block (``None``
        when no point simulated) and the failed results by group
        position; :class:`SimOptions` values are built for failed rows
        only.
        """
        errors: Dict[int, CamJError] = {}
        rows: Sequence[int] = range(len(group))
        skip = group.values("skip_checks")
        if not all(skip):
            try:
                self.ensure_design_checked(design, design_hash)
            except CamJError as error:
                errors = {i: error for i in rows if not skip[i]}
                rows = [i for i in rows if skip[i]]
        points = group if len(rows) == len(group) else group.take(rows)
        report = None
        if rows:
            report, failed = self._simulate(
                design, design_hash, points.values("frame_rate"),
                points.values("exposure_slots"))
            errors.update((rows[row], error) for row, error in failed.items())
            if report is not None and failed:
                points = points.take([row for row in range(len(points))
                                      if row not in failed])
        failures = {i: SimResult(design_name=design.name, options=group[i],
                                 design_hash=design_hash, error=error)
                    for i, error in errors.items()}
        if design_hash is not None:
            for i, result in failures.items():
                self.offer_result((design_hash, result.options), result)
        block = None
        if report is not None:
            block = ResultBlock(
                design_name=design.name, design_hash=design_hash,
                options=points, report=report,
                # A failure the cache does not keep must re-run when the
                # group comes back, so the block cannot answer for it.
                group=group if all(map(cacheable_result, failures.values()))
                else None,
                failed=failures)
            self.offer_results(block)
        return block, failures

    def _simulate(self, design: Design, design_hash: Optional[str],
                  frame_rate, exposure_slots, cycle_accurate: bool = False):
        """The session's one engine call, for one point or columns of
        points (:func:`~repro.sim.simulator._simulate_graph`): the
        design's validated mapping and resolved units, its session pass
        memo, the session's pass counters.  The caller runs the checks."""
        return _simulate_graph(
            design.graph, design.system, design.mapping,
            frame_rate=frame_rate, exposure_slots=exposure_slots,
            cycle_accurate=cycle_accurate,
            skip_checks=True,  # the caller's, at most once per design
            mapping_validated=True,  # Design validated at construction
            resolved=design.resolved_units,
            memo=self._pass_memo_for(design, design_hash),
            counters=self._pass_counters)

    def _job_key(self, design: Design, options: SimOptions
                 ) -> Optional[Tuple[str, SimOptions]]:
        """Content identity of one job; ``None`` when unserializable."""
        design_hash = self.design_key(design)
        return (design_hash, options) if design_hash is not None else None

    def design_key(self, design: Design) -> Optional[str]:
        """The design's content hash, or ``None`` when unserializable."""
        try:
            return design.content_hash
        except SerializationError:
            return None

    def ensure_design_checked(self, design: Design,
                              design_hash: Optional[str]) -> None:
        """Run the pre-simulation checks at most once per design.

        Session-deduplicated by content hash exactly like the engine
        path: a hash already validated this session (by this object or
        an identical design) skips the check walk entirely.
        """
        if design_hash is None \
                or design_hash not in self._checked_hashes:
            design.ensure_checked()
            if design_hash is not None:
                with self._lock:
                    self._checked_hashes.add(design_hash)

    # --- the two-tier cache -----------------------------------------------

    def _probe_cache(self, key: Tuple[str, SimOptions],
                     count_miss: bool = True,
                     probe_disk: bool = True) -> Optional[SimResult]:
        """Memory tier first, then (optionally) disk; ``None`` on miss.

        The memory probe is plain (GIL-atomic) dict reads — the session
        lock guards only counter updates, so concurrent warm ``run()``
        calls never serialize on each other's probes.  A block row is
        materialized into its own :class:`SimResult`; a disk hit is
        promoted into the memory tier.
        """
        hit = self._cache.get(key)
        if hit is None:
            found = self._block_row(key)
            if found is not None:
                hit = found[0].result(found[1])
                self._persist_row(*found, hit)
        if hit is None and probe_disk and self._disk_cache is not None:
            hit = self._disk_cache.get(key[0], key[1])
            if hit is not None:
                self._store(key, hit, disk=False)
        if hit is not None:
            with self._lock:
                self._cache_hits += 1
        elif count_miss:
            self._count_misses(1)
        return hit

    def _block_row(self, key: Tuple[str, SimOptions]
                   ) -> Optional[Tuple[ResultBlock, int]]:
        """The newest column block holding ``key``, and its row."""
        for block in reversed(self._blocks_by_hash.get(key[0], ())):
            row = block.rows.get(key[1])
            if row is not None:
                return block, row
        return None

    def _persist_row(self, block: ResultBlock, row: int,
                     result: Optional[SimResult] = None) -> None:
        """Write a block row to the disk tier the first time it is served.

        A row reaches disk exactly when a single stored result would: on
        the first probe that serves it.
        """
        if self._disk_cache is None or row in block.persisted:
            return
        block.persisted.add(row)
        if result is None:
            result = block.result(row)
        self._disk_cache.put(block.design_hash, result.options, result)

    def _count_misses(self, count: int) -> None:
        """Count ``count`` cache misses (no-op when caching is off)."""
        if self._cache_enabled:
            with self._lock:
                self._cache_misses += count

    def _store(self, key: Tuple[str, SimOptions], result: SimResult,
               disk: bool = True) -> None:
        """Publish one executed result to the cache tiers.

        No-op when caching is off or the result is not
        :func:`~repro.exec.base.cacheable_result`.  ``disk=False``
        stores to the memory tier only — for a result whose producer
        already wrote the shared disk tier.
        """
        if not self._cache_enabled or not cacheable_result(result):
            return
        with self._lock:
            self._cache.setdefault(key, result)
            self._cache_hashes.add(key[0])
        if disk and self._disk_cache is not None:
            self._disk_cache.put(key[0], key[1], result)

    def probe_results(self, group: OptionColumns,
                      design_hash: Optional[str]
                      ) -> Tuple[List[Tuple[ResultBlock, List[int],
                                            Optional[List[int]]]],
                                 Dict[int, SimResult], Sequence[int]]:
        """Probe the result cache for one design's group of options.

        ``group`` holds the points' options as columns.  Gives every
        point the cache behavior a cold :meth:`run` would have, with the
        hit/miss counters ticking once for the group.  Returns the block
        hits as ``(block, group positions, block rows)`` entries (rows
        ``None``: every row, in order), unmaterialized, so a caller that
        reads columns builds no :class:`SimResult` for them; the
        single-result hits by group position, ``cached=True`` (disk hits
        promoted); and the positions that missed.

        A group equal to the one the design's newest block was run for
        (:meth:`run_block`) is answered by that block: one column
        comparison, the block whole as one entry with rows ``None`` and
        the failures it recorded as the single hits — no per-key lookup
        and no :attr:`ResultBlock.rows` index.  (No block row has a
        single result of its own: :meth:`run_block` is given only the
        keys a probe missed.)  Any other group takes :meth:`run`'s
        per-key order, one :class:`SimOptions` per position: a single
        result, then the newest block holding it, then the disk tier.
        A block row reaches the disk tier on its first serve either
        way.  With caching off or an unserializable design
        (``design_hash`` ``None``), every position misses and no
        counter changes.
        """
        size = len(group)
        if not self._cache_enabled or design_hash is None:
            return [], {}, range(size)
        blocks = self._blocks_by_hash.get(design_hash, ())
        has_singles = design_hash in self._cache_hashes
        disk = self._disk_cache
        if not (blocks or has_singles or disk is not None):
            self._count_misses(size)
            return [], {}, range(size)
        if blocks and blocks[-1].group == group:
            block = blocks[-1]
            if disk is not None:
                for row in range(len(block)):
                    self._persist_row(block, row)
            failed = block.failed
            with self._lock:
                self._cache_hits += size
            positions = [position for position in range(size)
                         if position not in failed] if failed \
                else list(range(size))
            return [(block, positions, None)], \
                {position: replace(result, cached=True)
                 for position, result in failed.items()}, []
        served: Dict[int, Tuple[ResultBlock, List[int], Any]] = {}
        singles: Dict[int, SimResult] = {}
        pending: List[int] = []
        for position in range(size):
            options = group[position]
            key = (design_hash, options)
            hit = self._cache.get(key) if has_singles else None
            found = self._block_row(key) if hit is None and blocks \
                else None
            if found is not None:
                block, row = found
                self._persist_row(block, row)
                _, positions, rows = served.setdefault(
                    id(block), (block, [], []))
                positions.append(position)
                rows.append(row)
                continue
            if hit is None and disk is not None:
                hit = disk.get(design_hash, options)
                if hit is not None:
                    self._store(key, hit, disk=False)
            if hit is None:
                pending.append(position)
            else:
                singles[position] = replace(hit, cached=True)
        with self._lock:
            self._cache_hits += size - len(pending)
            self._cache_misses += len(pending)
        return [(block, positions, None if rows == list(range(len(block)))
                 else rows) for block, positions, rows in served.values()
                ], singles, pending

    def offer_result(self, key: Optional[Tuple[str, SimOptions]],
                     result: SimResult) -> None:
        """Publish one result computed outside :meth:`run`.

        Stored eagerly, under :meth:`run`'s rule: both tiers, and only
        when the result is :func:`~repro.exec.base.cacheable_result`.
        The vectorized explore path offers its failed points here.
        No-op when caching is off or the key is ``None``.
        """
        if key is not None:
            self._store(key, result)

    def offer_results(self, block: ResultBlock) -> None:
        """Publish one group's feasible results as a column block.

        A later probe of any of its keys hits (see
        :meth:`probe_results` and :meth:`run`); the block is never
        unpacked into per-key entries.  Bounded by the total row count:
        the oldest blocks are dropped whole.  No-op when caching is
        off, the block is empty or its design is unserializable.
        """
        design_hash = block.design_hash
        if not self._cache_enabled or not len(block) or design_hash is None:
            return
        by_hash = self._blocks_by_hash
        with self._lock:
            self._blocks.append(block)
            by_hash[design_hash] = [*by_hash.get(design_hash, ()), block]
            self._block_rows += len(block)
            while self._block_rows > _BLOCK_ROW_LIMIT:
                oldest = self._blocks.popleft()
                self._block_rows -= len(oldest)
                # Per-hash lists age in the same order as the deque.
                rest = by_hash[oldest.design_hash][1:]
                if rest:
                    by_hash[oldest.design_hash] = rest
                else:
                    del by_hash[oldest.design_hash]

    def _pass_memo_for(self, design: Design,
                       design_hash: Optional[str]) -> PassMemo:
        """The design-only pass memo this run should reuse.

        Keyed by content hash (LRU-bounded) so independently built but
        identical designs share one memo; unserializable designs fall
        back to their per-object memo.
        """
        if design_hash is None:
            return design.pass_memo
        with self._lock:
            memo = self._pass_memos.get(design_hash)
            if memo is None:
                memo = design.pass_memo
                self._pass_memos[design_hash] = memo
                while len(self._pass_memos) > _PASS_MEMO_LIMIT:
                    self._pass_memos.popitem(last=False)
            else:
                self._pass_memos.move_to_end(design_hash)
            return memo

    # --- batch runs -------------------------------------------------------

    def run_many(self, items: Iterable[BatchItem],
                 options: Optional[SimOptions] = None) -> List[SimResult]:
        """Simulate a batch; results come back in input order.

        ``items`` mixes bare designs and ``(design, options)`` pairs;
        bare designs use ``options`` (or the session default).  Identical
        ``(design, options)`` jobs — by content hash — are executed once
        and fanned back out to every requesting slot.  The backend runs
        the cache misses (see the class's ``executor`` parameter); its
        worker pool is created on the first batch that needs one and
        reused by every later batch.
        """
        jobs = [self._normalize_item(item, options) for item in items]
        if not jobs:
            return []

        # Deduplicate by content: one worker job per distinct scenario.
        # Unserializable designs get a per-slot sentinel key — never
        # cached or deduplicated, but still fanned out (thread mode).
        unique: Dict[Any, Tuple[Design, SimOptions]] = {}
        slots: List[Any] = []
        deduplicated = 0
        for index, (design, resolved) in enumerate(jobs):
            key = self._job_key(design, resolved)
            if key is None:
                if self._executor.requires_serializable:
                    # Can't ship a payload to another process; the
                    # assembly loop below runs these in-line.
                    slots.append((None, design, resolved))
                    continue
                key = (UNCACHED, index)
            if key in unique:
                deduplicated += 1
            else:
                unique[key] = (design, resolved)
            slots.append((key, design, resolved))

        started = time.perf_counter()

        # Serve cache hits up front: a warm batch never touches a pool.
        # Hits are counted batch-locally so concurrent run() callers
        # racing on the shared session counters can't skew the stats.
        batch_hits = 0
        outcomes: Dict[Any, SimResult] = {}
        pending: Dict[Any, Tuple[Design, SimOptions]] = {}
        for key, job in unique.items():
            if self._cache_enabled and key[0] is not UNCACHED:
                # Misses are not counted here: pending jobs re-probe (and
                # count) inside run() on their worker.
                hit = self._probe_cache(key, count_miss=False)
                if hit is not None:
                    batch_hits += 1
                    outcomes[key] = replace(hit, cached=True)
                    continue
            pending[key] = job

        max_workers = self._max_workers
        if max_workers is None:
            max_workers = min(max(len(pending), 1),
                              max(2, os.cpu_count() or 1))
        worker_ids = set()
        counters = _BatchCounters()

        if pending:
            max_workers = max(max_workers,
                              self._executor.pool_width_floor())
            outcomes.update(self._executor.run_pending(
                self, pending, max_workers, worker_ids, counters))

        results: List[SimResult] = []
        ran_inline = False
        for key, design, resolved in slots:
            if key is None:
                results.append(self.run(design, resolved))
                ran_inline = True
            else:
                results.append(outcomes[key])

        with self._lock:
            for event, count in counters.counts.items():
                self._resilience_totals[event] += count
        self.last_batch_stats = BatchStats(
            total=len(jobs), unique=len(jobs) - deduplicated,
            cache_hits=batch_hits,
            max_workers=max_workers,
            workers_used=len(worker_ids) + (1 if ran_inline else 0),
            elapsed_s=time.perf_counter() - started,
            **counters.counts)
        return results

    def _normalize_item(self, item: BatchItem,
                        options: Optional[SimOptions]
                        ) -> Tuple[Design, SimOptions]:
        if isinstance(item, Design):
            return item, (options if options is not None else self.options)
        try:
            design, item_options = item
        except (TypeError, ValueError):
            raise ConfigurationError(
                f"run_many items must be Design or (Design, SimOptions), "
                f"got {type(item).__name__}") from None
        if not isinstance(design, Design) \
                or not isinstance(item_options, SimOptions):
            raise ConfigurationError(
                f"run_many items must be Design or (Design, SimOptions), "
                f"got ({type(design).__name__}, "
                f"{type(item_options).__name__})")
        return design, item_options

    # --- cache management -------------------------------------------------

    def cache_info(self) -> CacheInfo:
        """Hit/miss/size counters of both result-cache tiers."""
        with self._lock:
            hits, misses = self._cache_hits, self._cache_misses
            size = len(self._cache) + self._block_rows
        if self._disk_cache is None:
            return CacheInfo(hits=hits, misses=misses, size=size)
        disk = self._disk_cache.info()
        return CacheInfo(hits=hits, misses=misses, size=size,
                         disk_hits=disk.hits, disk_misses=disk.misses,
                         disk_evictions=disk.evictions,
                         disk_entries=disk.entries,
                         disk_bytes=disk.total_bytes,
                         disk_errors=disk.errors,
                         disk_disabled=disk.disabled)

    def clear_cache(self, disk: bool = False) -> None:
        """Drop cached results (counters are kept).

        The persistent tier survives by default — it exists to outlive
        sessions; pass ``disk=True`` to wipe it too.
        """
        with self._lock:
            self._cache.clear()
            self._blocks.clear()
            self._blocks_by_hash.clear()
            self._block_rows = 0
            self._cache_hashes.clear()
        if disk and self._disk_cache is not None:
            self._disk_cache.clear()

    def pass_info(self) -> Dict[str, int]:
        """How many times each engine pass actually executed.

        Memoized design-only passes (see
        :data:`repro.sim.simulator.SIM_PASSES`) count only real runs,
        so an option sweep over one design shows e.g. ``timeline: 1``
        next to ``timing: N``.
        """
        return self._pass_counters.snapshot()


class _BatchCounters:
    """Mutable resilience tallies for one ``run_many`` call.

    Worker threads bump these concurrently, so increments go through a
    lock; ``run_many`` reads them only after every worker is done.
    """

    __slots__ = ("lock", "counts")

    def __init__(self) -> None:
        self.lock = threading.Lock()
        self.counts = dict.fromkeys(_RESILIENCE_EVENTS, 0)

    def add(self, event: str, count: int = 1) -> None:
        with self.lock:
            self.counts[event] += count


def run_design(design: Design,
               options: Optional[SimOptions] = None,
               **overrides) -> "SimResult":
    """One-shot convenience: simulate a design with fresh session state.

    Keyword overrides are :class:`SimOptions` fields, e.g.
    ``run_design(design, frame_rate=60)``.
    """
    base = options if options is not None else SimOptions()
    if overrides:
        base = base.replace(**overrides)
    return Simulator(base, cache=False).run(design)
