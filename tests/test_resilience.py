"""Fault-tolerance tests: retry/timeout/backoff, pool healing and
quarantine, deterministic fault injection, disk-cache degradation, the
serve job journal, and daemon restart recovery."""

import contextlib
import json
import os
import signal
import subprocess
import sys
import time
import warnings
from concurrent.futures import BrokenExecutor
from pathlib import Path

import pytest

from repro.api import Design, SimOptions, Simulator
from repro.api.diskcache import DiskResultCache
from repro.exceptions import (ConfigurationError, ExecutionTimeoutError,
                              TransientSimError, WorkerCrashError)
from repro.explore import choice, explore
from repro.resilience import (
    FAULTS_ENV,
    FailureClass,
    FaultInjector,
    FaultPlan,
    JsonlJournal,
    QUARANTINE_THRESHOLD,
    RetryPolicy,
    classify,
    get_injector,
    reset_injector,
)
from repro.resilience.policy import (
    RETRY_ATTEMPTS_ENV,
    RETRY_BASE_DELAY_ENV,
    TASK_TIMEOUT_ENV,
)
from repro.serve import (
    BackgroundServer,
    JobJournal,
    ServeClient,
    ServeError,
    StreamBuffer,
)
from repro.serve.jobs import Job, JobState
from repro.usecases.fig5 import build_fig5_design

REPO_ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(autouse=True)
def _clean_faults(monkeypatch):
    """Every test starts and ends with an inert injector singleton."""
    monkeypatch.delenv(FAULTS_ENV, raising=False)
    reset_injector()
    yield
    reset_injector()


def _named_fig5(name):
    """The fig5 design under a distinct name (→ distinct cache key)."""
    payload = build_fig5_design().to_dict()
    payload["name"] = name
    return Design.from_dict(payload)


# --- failure classification and retry policy --------------------------------

class TestClassify:
    def test_typed_exceptions_map_to_their_class(self):
        from repro.exceptions import (ExecutionTimeoutError,
                                      WorkerCrashError)
        assert classify(TransientSimError("x")) is FailureClass.TRANSIENT
        assert classify(ExecutionTimeoutError("x")) is FailureClass.TIMEOUT
        assert classify(WorkerCrashError("x")) is FailureClass.POOL_CRASH
        assert classify(BrokenExecutor("x")) is FailureClass.POOL_CRASH
        assert classify(ConfigurationError("x")) is FailureClass.PERMANENT

    def test_raw_io_failures_are_transient(self):
        assert classify(OSError("io")) is FailureClass.TRANSIENT
        assert classify(ConnectionResetError("drop")) \
            is FailureClass.TRANSIENT

    def test_unknown_and_absent_failures_are_permanent(self):
        assert classify(ValueError("x")) is FailureClass.PERMANENT
        assert classify(None) is FailureClass.PERMANENT


class TestRetryPolicy:
    def test_retryable_matrix(self):
        policy = RetryPolicy()
        assert policy.retryable(FailureClass.TRANSIENT)
        assert not policy.retryable(FailureClass.PERMANENT)
        assert not policy.retryable(FailureClass.TIMEOUT)
        assert not policy.retryable(FailureClass.POOL_CRASH)
        assert policy.replace(retry_timeouts=True).retryable(
            FailureClass.TIMEOUT)

    @pytest.mark.parametrize("failure, retry_timeouts, retried", [
        (TransientSimError("flaky"), False, True),
        (ConfigurationError("bad design"), False, False),
        (ExecutionTimeoutError("slow"), False, False),
        (ExecutionTimeoutError("slow"), True, True),
        (WorkerCrashError("killed"), False, False),
        (None, False, False),
    ])
    def test_should_retry_table_at_the_attempt_boundary(
            self, failure, retry_timeouts, retried):
        """The one retry predicate every executor defers to."""
        policy = RetryPolicy(max_attempts=3, retry_timeouts=retry_timeouts)
        assert policy.should_retry(0, failure) is retried
        assert policy.should_retry(1, failure) is retried  # last retry
        assert policy.should_retry(2, failure) is False  # attempts spent
        assert RetryPolicy(max_attempts=1, retry_timeouts=retry_timeouts
                           ).should_retry(0, failure) is False

    def test_backoff_is_deterministic_capped_and_exponential(self):
        policy = RetryPolicy(base_delay_s=0.1, max_delay_s=1.0,
                             jitter=0.25)
        assert policy.backoff_s(0, "k") == policy.backoff_s(0, "k")
        assert policy.backoff_s(0, "k") != policy.backoff_s(0, "other")
        assert policy.backoff_s(1, "k") > policy.backoff_s(0, "k") * 1.5
        # Capped at max_delay plus full jitter, no matter the attempt.
        assert policy.backoff_s(40, "k") <= 1.0 * 1.25
        assert RetryPolicy(base_delay_s=0.0).backoff_s(3, "k") == 0.0
        assert RetryPolicy(jitter=0.0, base_delay_s=0.1).backoff_s(1) \
            == pytest.approx(0.2)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ConfigurationError):
            RetryPolicy(jitter=1.5)
        with pytest.raises(ConfigurationError):
            RetryPolicy(timeout_s=0.0)

    def test_from_env_overrides(self):
        policy = RetryPolicy.from_env({RETRY_ATTEMPTS_ENV: "5",
                                       RETRY_BASE_DELAY_ENV: "0.5",
                                       TASK_TIMEOUT_ENV: "7.5"})
        assert policy.max_attempts == 5
        assert policy.base_delay_s == 0.5
        assert policy.timeout_s == 7.5
        assert RetryPolicy.from_env({}) == RetryPolicy()
        with pytest.raises(ConfigurationError):
            RetryPolicy.from_env({RETRY_ATTEMPTS_ENV: "lots"})


# --- the deterministic fault-injection harness ------------------------------

class TestFaultPlan:
    def test_from_env_unset_is_inactive(self):
        plan = FaultPlan.from_env({})
        assert not plan.active
        assert not FaultInjector(plan).active

    def test_env_json_round_trip(self, monkeypatch):
        monkeypatch.setenv(FAULTS_ENV, json.dumps(
            {"seed": 7, "transient_rate": 0.25}))
        injector = reset_injector()
        assert injector.plan.seed == 7
        assert injector.plan.transient_rate == 0.25
        assert injector.active

    def test_bad_configurations_are_typed_errors(self):
        with pytest.raises(ConfigurationError):
            FaultPlan.from_env({FAULTS_ENV: "{not json"})
        with pytest.raises(ConfigurationError):
            FaultPlan.from_dict({"kill_rat": 1.0})
        with pytest.raises(ConfigurationError):
            FaultPlan(transient_rate=1.5)
        with pytest.raises(ConfigurationError):
            FaultPlan(delay_s=-1.0)

    def test_decisions_are_deterministic_across_injectors(self):
        plan = FaultPlan(seed=42, transient_rate=0.5,
                         transient_max_attempt=9)
        outcomes = []
        for _ in range(2):
            injector = FaultInjector(plan)
            decided = []
            for task in range(20):
                try:
                    injector.before_task(f"task-{task}", f"hash-{task}")
                    decided.append(False)
                except TransientSimError:
                    decided.append(True)
            outcomes.append(decided)
        assert outcomes[0] == outcomes[1]
        assert any(outcomes[0]) and not all(outcomes[0])

    def test_transient_faults_respect_max_attempt(self):
        injector = FaultInjector(FaultPlan(transient_rate=1.0))
        with pytest.raises(TransientSimError):
            injector.before_task("t", "h", attempt=0)
        injector.before_task("t", "h", attempt=1)  # retries succeed
        assert injector.counters.transients == 1

    def test_disk_faults_raise_enospc(self):
        import errno
        injector = FaultInjector(FaultPlan(disk_error_rate=1.0))
        with pytest.raises(OSError) as excinfo:
            injector.before_disk("put", "entry.json")
        assert excinfo.value.errno == errno.ENOSPC
        assert injector.counters.disk_errors == 1

    def test_inactive_injector_is_a_noop(self):
        injector = get_injector()
        injector.before_task("t", "h")
        injector.before_disk("get", "entry.json")
        assert injector.counters.snapshot() == {
            "kills": 0, "transients": 0, "delays": 0, "disk_errors": 0}


# --- task hardening in Simulator.run_many -----------------------------------

class TestThreadRetries:
    def test_transient_failures_retry_to_success(self):
        reset_injector(FaultPlan(transient_rate=1.0))
        simulator = Simulator(retry=RetryPolicy(max_attempts=3,
                                                base_delay_s=0.0))
        results = simulator.run_many([_named_fig5("rt-a"),
                                      _named_fig5("rt-b")])
        assert all(result.ok for result in results)
        assert simulator.last_batch_stats.retries == 2
        assert simulator.resilience_info()["retries"] == 2

    def test_exhausted_retries_fail_typed_and_uncached(self):
        reset_injector(FaultPlan(transient_rate=1.0,
                                 transient_max_attempt=9))
        simulator = Simulator(retry=RetryPolicy(max_attempts=2,
                                                base_delay_s=0.0))
        [result] = simulator.run_many([_named_fig5("rt-fail")])
        assert not result.ok
        assert result.error_type == "TransientSimError"
        # The transient failure was not cached: with the fault gone the
        # same session re-simulates and succeeds.
        reset_injector()
        [again] = simulator.run_many([_named_fig5("rt-fail")])
        assert again.ok and not again.cached

    def test_healthy_batches_report_zero_counters(self):
        simulator = Simulator()
        results = simulator.run_many([_named_fig5("healthy")])
        assert results[0].ok
        stats = simulator.last_batch_stats
        assert (stats.retries, stats.timeouts, stats.pool_rebuilds,
                stats.quarantined) == (0, 0, 0, 0)


class TestDeadlines:
    def test_thread_deadline_times_out_typed(self):
        reset_injector(FaultPlan(delay_s=5.0))
        simulator = Simulator(retry=RetryPolicy(max_attempts=1,
                                                timeout_s=0.2))
        [result] = simulator.run_many([_named_fig5("slow-thread")])
        assert not result.ok
        assert result.error_type == "ExecutionTimeoutError"
        assert result.elapsed_s == pytest.approx(0.2)
        assert simulator.last_batch_stats.timeouts == 1

    def test_thread_deadline_starts_when_each_task_runs(self):
        """Queued tasks do not burn their deadline waiting for a slot:
        four 0.2 s tasks on one thread all beat a 0.3 s deadline."""
        reset_injector(FaultPlan(delay_s=0.2))
        simulator = Simulator(max_workers=1,
                              retry=RetryPolicy(max_attempts=1,
                                                timeout_s=0.3))
        designs = [_named_fig5(f"queued-{i}") for i in range(4)]
        results = simulator.run_many(designs)
        assert [result.error_type for result in results] == [None] * 4
        assert simulator.last_batch_stats.timeouts == 0
        simulator.close()

    def test_process_deadline_retires_the_hung_pool(self, monkeypatch):
        monkeypatch.setenv(FAULTS_ENV, json.dumps({"delay_s": 30.0}))
        reset_injector()
        with Simulator(executor="process", max_workers=1,
                       retry=RetryPolicy(max_attempts=1,
                                         timeout_s=0.5)) as simulator:
            [result] = simulator.run_many([_named_fig5("slow-proc")])
            assert not result.ok
            assert result.error_type == "ExecutionTimeoutError"
            stats = simulator.last_batch_stats
            assert stats.timeouts == 1
            assert stats.pool_rebuilds >= 1


class TestPoolHealing:
    def test_worker_deaths_heal_and_crash_victims_recover(
            self, monkeypatch):
        monkeypatch.setenv(FAULTS_ENV, json.dumps({"kill_rate": 1.0}))
        reset_injector()
        with Simulator(executor="process", max_workers=2) as simulator:
            designs = [_named_fig5(f"heal-{i}") for i in range(4)]
            results = simulator.run_many(designs)
            assert all(result.ok for result in results)
            stats = simulator.last_batch_stats
            assert stats.pool_rebuilds >= 1
            assert stats.quarantined == 0

    def test_repeat_crasher_is_quarantined_not_the_batch(
            self, monkeypatch):
        monkeypatch.setenv(FAULTS_ENV,
                           json.dumps({"kill_design": "POISON"}))
        reset_injector()
        with Simulator(executor="process", max_workers=2) as simulator:
            designs = [_named_fig5("q-a"), _named_fig5("q-POISON"),
                       _named_fig5("q-b"), _named_fig5("q-c")]
            results = simulator.run_many(designs)
            by_name = {result.design_name: result for result in results}
            poisoned = by_name["q-POISON"]
            assert not poisoned.ok
            assert poisoned.error_type == "WorkerCrashError"
            assert str(QUARANTINE_THRESHOLD) in poisoned.failure
            for name in ("q-a", "q-b", "q-c"):
                assert by_name[name].ok, name
            assert simulator.last_batch_stats.quarantined == 1
            assert simulator.last_batch_stats.pool_rebuilds \
                >= QUARANTINE_THRESHOLD


def _poisonable_fig5(index=0):
    i = int(index)
    suffix = "-POISON" if i == 13 else ""
    return _named_fig5(f"pt-{i:03d}{suffix}")


class TestExploreUnderFaults:
    def test_100_point_explore_survives_a_crashing_design(
            self, monkeypatch):
        """The tentpole acceptance: one design kills its worker every
        time; the exploration still completes with that design
        quarantined and every other point evaluated."""
        monkeypatch.setenv(FAULTS_ENV,
                           json.dumps({"kill_design": "POISON"}))
        reset_injector()
        with Simulator(executor="process", max_workers=4) as simulator:
            result = explore(choice("index", list(range(100))),
                             _poisonable_fig5,
                             objectives=["energy_per_frame"],
                             simulator=simulator)
        assert len(result.points) == 100
        crashed = [point for point in result.points
                   if point.failure_type == "WorkerCrashError"]
        assert len(crashed) == 1
        assert crashed[0].params == {"index": 13}
        feasible = [point for point in result.points if point.feasible]
        assert len(feasible) == 99
        assert result.resilience["quarantined"] == 1
        assert result.resilience["pool_rebuilds"] >= QUARANTINE_THRESHOLD
        # The tally survives serialization (and old documents default).
        document = result.to_dict()
        assert document["resilience"]["quarantined"] == 1
        del document["resilience"]
        from repro.explore import ExplorationResult
        reloaded = ExplorationResult.from_dict(document)
        assert reloaded.resilience["quarantined"] == 0

    def test_kill_rate_costs_retries_not_answers(self, monkeypatch):
        """40 points on a 4-worker pool, once clean and once with 10% of
        first attempts killing their worker (seed 1234): >= 90% still
        complete, with the clean run's metrics, and the plan really
        kills (>= 1 pool rebuild)."""

        def explore_once():
            with Simulator(executor="process", max_workers=4,
                           cache=False) as simulator:
                return explore(
                    choice("index", list(range(40))),
                    lambda index=0: _named_fig5(f"res-{int(index):03d}"),
                    objectives=["energy_per_frame"], simulator=simulator)

        clean = explore_once()
        assert all(point.feasible for point in clean.points)
        assert clean.resilience["pool_rebuilds"] == 0
        monkeypatch.setenv(FAULTS_ENV, json.dumps({"seed": 1234,
                                                   "kill_rate": 0.10}))
        reset_injector()
        faulty = explore_once()
        clean_metrics = {json.dumps(point.params): point.metrics
                         for point in clean.points}
        for point in faulty.points:
            if point.feasible:
                assert point.metrics == clean_metrics[
                    json.dumps(point.params)]
        completed = sum(1 for point in faulty.points if point.feasible)
        assert completed / 40 >= 0.90
        assert faulty.resilience["pool_rebuilds"] >= 1


# --- graceful disk-cache degradation ----------------------------------------

class TestDiskCacheDegradation:
    def test_hard_disk_error_degrades_to_memory_only(self, tmp_path):
        reset_injector(FaultPlan(disk_error_rate=1.0))
        simulator = Simulator(cache_dir=tmp_path)
        design = _named_fig5("disk-a")
        with pytest.warns(RuntimeWarning, match="memory-only"):
            [result] = simulator.run_many([design])
        assert result.ok
        info = simulator.cache_info()
        assert info.disk_disabled
        assert info.disk_errors >= 1
        # The memory tier still serves, and no further warning fires.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            [again] = simulator.run_many([design])
        assert again.ok and again.cached

    def test_disabled_cache_short_circuits(self, tmp_path):
        cache = DiskResultCache(tmp_path)
        reset_injector(FaultPlan(disk_error_rate=1.0))
        design = build_fig5_design()
        result = Simulator(cache=False).run(design)
        with pytest.warns(RuntimeWarning):
            assert not cache.put(design.content_hash, result.options,
                                 result)
        assert cache.disabled
        # Disabled means no further I/O: the injector would raise.
        assert cache.get(design.content_hash, result.options) is None
        assert not cache.put(design.content_hash, result.options, result)
        assert cache.info().disabled
        assert cache.info().errors == 1

    def test_corrupt_entries_count_as_soft_errors(self, tmp_path):
        cache = DiskResultCache(tmp_path)
        design = build_fig5_design()
        result = Simulator(cache=False).run(design)
        assert cache.put(design.content_hash, result.options, result)
        [entry] = sorted(tmp_path.glob("*.json"))
        entry.write_text("{torn")
        assert cache.get(design.content_hash, result.options) is None
        assert not cache.disabled  # soft errors take many to disable
        assert cache.info().errors == 1


# --- the crash-safe JSONL journal -------------------------------------------

class TestJsonlJournal:
    def test_append_and_replay_round_trip(self, tmp_path):
        journal = JsonlJournal(tmp_path / "events.jsonl")
        journal.append({"n": 1})
        journal.append({"n": 2})
        journal.close()
        assert [record["n"] for record in journal.replay()] == [1, 2]
        assert journal.info()["appends"] == 2

    def test_torn_tail_is_skipped_not_fatal(self, tmp_path):
        path = tmp_path / "events.jsonl"
        journal = JsonlJournal(path)
        journal.append({"n": 1})
        journal.close()
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"n": 2, "torn...')  # SIGKILL mid-append
        assert [record["n"] for record in journal.replay()] == [1]
        assert journal.skipped_corrupt == 1

    def test_rewrite_replaces_history_atomically(self, tmp_path):
        journal = JsonlJournal(tmp_path / "events.jsonl")
        for n in range(5):
            journal.append({"n": n})
        journal.rewrite([{"n": 99}])
        assert [record["n"] for record in journal.replay()] == [99]
        assert journal.info()["rewrites"] == 1

    def test_missing_file_replays_empty(self, tmp_path):
        journal = JsonlJournal(tmp_path / "never-written.jsonl")
        assert list(journal.replay()) == []


class TestJobJournal:
    def _terminal_job(self, number, state=JobState.DONE):
        design = _named_fig5(f"jj-{number}")
        job = Job(f"job-{number:06d}", "run", design.name,
                  (design, SimOptions()))
        job.state = state
        job.result = {"n": number}
        job.finished_at = job.created_at
        return job

    def test_submit_and_terminal_records_replay(self, tmp_path):
        journal = JobJournal(tmp_path)
        job = self._terminal_job(1)
        journal.record_submit(job)
        journal.record_terminal(job)
        snapshots = journal.replay_jobs()
        assert list(snapshots) == ["job-000001"]
        snapshot = snapshots["job-000001"]
        assert snapshot["submit"]["spec"]["design"]["name"] == "jj-1"
        assert snapshot["state"]["state"] == "done"
        assert snapshot["state"]["result"] == {"n": 1}
        journal.close()

    def test_compaction_bounds_terminal_history(self, tmp_path):
        journal = JobJournal(tmp_path)
        for number in range(1, 6):
            job = self._terminal_job(number)
            journal.record_submit(job)
            journal.record_terminal(job)
        journal.compact(journal.replay_jobs(), max_terminal=2)
        survivors = journal.replay_jobs()
        assert list(survivors) == ["job-000004", "job-000005"]
        # Interrupted (non-terminal) jobs are never compacted away.
        queued = Job("job-000009", "run", "jj-9",
                     (_named_fig5("jj-9"), SimOptions()))
        journal.record_submit(queued)
        journal.compact(journal.replay_jobs(), max_terminal=1)
        survivors = journal.replay_jobs()
        assert "job-000009" in survivors
        assert survivors["job-000009"]["state"] is None
        journal.close()

    def test_compaction_races_active_writers_losslessly(self, tmp_path):
        """Concurrent submits during compaction never lose a record.

        Compaction replays the file and rewrites it; before the
        journal-wide lock, a record appended between those two steps
        was silently erased by the rewrite.  Hammer compact() from one
        thread while writers append terminal jobs, then check every
        job survived with its terminal state intact.
        """
        import threading

        journal = JobJournal(tmp_path)
        errors = []
        stop = threading.Event()

        def write(base):
            try:
                for number in range(base, base + 20):
                    job = self._terminal_job(number)
                    journal.record_submit(job)
                    journal.record_terminal(job)
            except Exception as error:  # pragma: no cover - fail loud
                errors.append(error)

        def compactor():
            try:
                while not stop.is_set():
                    journal.compact()
            except Exception as error:  # pragma: no cover - fail loud
                errors.append(error)

        writers = [threading.Thread(target=write, args=(base,))
                   for base in (100, 200, 300)]
        sweeper = threading.Thread(target=compactor)
        sweeper.start()
        for thread in writers:
            thread.start()
        for thread in writers:
            thread.join(timeout=60.0)
        stop.set()
        sweeper.join(timeout=60.0)
        assert errors == []
        survivors = journal.replay_jobs()
        expected = {f"job-{number:06d}" for base in (100, 200, 300)
                    for number in range(base, base + 20)}
        assert set(survivors) == expected
        assert all(snapshot["state"] is not None
                   and snapshot["state"]["state"] == "done"
                   for snapshot in survivors.values())
        journal.close()


# --- serve: bounded streams, client reconnect, restart recovery -------------

class TestStreamRing:
    def test_overflow_drops_oldest_with_truncation_marker(self):
        buffer = StreamBuffer(maxlen=4)
        for i in range(10):
            buffer.append({"event": "point", "i": i})
        events, cursor, _ = buffer.read_from(0)
        assert events[0] == {"event": "truncated", "dropped": 6}
        assert [event["i"] for event in events[1:]] == [6, 7, 8, 9]
        assert cursor == 10
        assert buffer.dropped == 6
        assert len(buffer) == 10

    def test_reader_inside_window_replays_losslessly(self):
        buffer = StreamBuffer(maxlen=4)
        for i in range(10):
            buffer.append({"event": "point", "i": i})
        events, cursor, _ = buffer.read_from(8)
        assert [event["i"] for event in events] == [8, 9]
        assert cursor == 10

    def test_maxlen_validated(self):
        with pytest.raises(ValueError):
            StreamBuffer(maxlen=0)


class TestClientResilience:
    def test_wait_backs_off_exponentially(self, monkeypatch):
        import repro.serve.client as client_module

        class _FakeTime:
            def __init__(self):
                self.now = 0.0
                self.sleeps = []

            def monotonic(self):
                return self.now

            def sleep(self, seconds):
                self.sleeps.append(seconds)
                self.now += seconds

        fake_time = _FakeTime()
        monkeypatch.setattr(client_module, "time", fake_time)
        client = ServeClient(port=1)
        polls = iter([{"state": "running"}] * 6 + [{"state": "done"}])
        monkeypatch.setattr(client, "job", lambda job_id: next(polls))
        assert client.wait("job-000001", timeout=600.0,
                           poll_s=0.05)["state"] == "done"
        assert fake_time.sleeps == [0.05, 0.1, 0.2, 0.4, 0.8, 1.6]

    def test_stream_reconnects_at_the_cursor(self, monkeypatch):
        client = ServeClient(port=1, stream_backoff_s=0.0)
        cursors = []

        def fake_stream_once(job_id, cursor=0):
            cursors.append(cursor)
            if len(cursors) == 1:
                yield {"event": "point", "i": 0}
                yield {"event": "truncated", "dropped": 3}
                yield {"event": "point", "i": 1}
                raise ConnectionResetError("mid-stream drop")
            yield {"event": "point", "i": 2}
            yield {"event": "done"}

        monkeypatch.setattr(client, "_stream_once", fake_stream_once)
        events = list(client.stream("job-000001"))
        # The truncation marker never advances the resume cursor.
        assert cursors == [0, 2]
        assert [event["i"] for event in events
                if event.get("event") == "point"] == [0, 1, 2]
        assert events[-1] == {"event": "done"}

    def test_exhausted_budget_raises_typed_connection_lost(
            self, monkeypatch):
        client = ServeClient(port=1, stream_reconnects=1,
                             stream_backoff_s=0.0)
        attempts = []

        def always_drops(job_id, cursor=0):
            attempts.append(cursor)
            raise ConnectionResetError("gone")
            yield  # pragma: no cover - makes this a generator

        monkeypatch.setattr(client, "_stream_once", always_drops)
        with pytest.raises(ServeError) as excinfo:
            list(client.stream("job-000001"))
        assert excinfo.value.error_type == "ConnectionLost"
        # A budget of 1 reconnect = 2 connection attempts in total.
        assert len(attempts) == 2

    def test_reconnect_budget_resets_on_progress(self, monkeypatch):
        # Three separate drops against a budget of one reconnect: fine,
        # because every reconnection delivers an event before dying —
        # only *consecutive* fruitless drops exhaust the budget.
        client = ServeClient(port=1, stream_reconnects=1,
                             stream_backoff_s=0.0)
        calls = []

        def flaky_stream(job_id, cursor=0):
            calls.append(cursor)
            if len(calls) <= 3:
                yield {"event": "point", "i": cursor}
                raise ConnectionResetError("flaky link")
            yield {"event": "done"}

        monkeypatch.setattr(client, "_stream_once", flaky_stream)
        events = list(client.stream("job-000001"))
        assert calls == [0, 1, 2, 3]
        assert events[-1] == {"event": "done"}

    def test_stream_backoff_is_capped_exponential(self, monkeypatch):
        import repro.serve.client as client_module

        class _FakeTime:
            def __init__(self):
                self.sleeps = []

            def sleep(self, seconds):
                self.sleeps.append(seconds)

        fake_time = _FakeTime()
        monkeypatch.setattr(client_module, "time", fake_time)
        client = ServeClient(port=1, stream_reconnects=4,
                             stream_backoff_s=0.05,
                             stream_backoff_max_s=0.1)

        def always_drops(job_id, cursor=0):
            raise ConnectionResetError("gone")
            yield  # pragma: no cover - makes this a generator

        monkeypatch.setattr(client, "_stream_once", always_drops)
        with pytest.raises(ServeError):
            list(client.stream("job-000001"))
        assert fake_time.sleeps == [0.05, 0.1, 0.1, 0.1]


def _run_spec(frame_rate):
    return {"design": {"usecase": "fig5"},
            "options": {"frame_rate": float(frame_rate)}}


def _explore_spec(rates, name="recover-sweep"):
    return {
        "schema": "repro.explore-spec/1",
        "name": name,
        "usecase": "fig5",
        "space": {"name": "options.frame_rate",
                  "values": [float(rate) for rate in rates]},
        "objectives": ["energy_per_frame"],
    }


def _boot_daemon(tmp_path, journal_dir, cache_dir, ready_name):
    """A journaled ``repro serve`` subprocess; returns (process, client)."""
    ready = tmp_path / ready_name
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    env.pop(FAULTS_ENV, None)
    process = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0",
         "--workers", "1", "--ready-file", str(ready),
         "--journal", str(journal_dir), "--cache-dir", str(cache_dir)],
        cwd=REPO_ROOT, env=env,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    deadline = time.monotonic() + 30.0
    while not ready.exists():
        assert process.poll() is None, process.communicate()[1]
        assert time.monotonic() < deadline, "ready file never came"
        time.sleep(0.05)
    address = json.loads(ready.read_text())
    return process, ServeClient.from_url(address["url"], timeout=30.0)


@contextlib.contextmanager
def _daemon(tmp_path, journal_dir, cache_dir, ready_name):
    process, client = _boot_daemon(tmp_path, journal_dir, cache_dir,
                                   ready_name)
    try:
        yield client
    finally:
        if process.poll() is None:
            process.send_signal(signal.SIGTERM)
            try:
                process.wait(timeout=30.0)
            except subprocess.TimeoutExpired:
                process.kill()
                process.wait(timeout=30.0)


class TestRestartRecovery:
    def test_background_server_restores_terminal_jobs(self, tmp_path):
        journal_dir = tmp_path / "journal"
        with BackgroundServer(workers=1,
                              journal_dir=str(journal_dir)) as server:
            client = server.client()
            job = client.submit(_run_spec(50.0))
            assert client.wait(job["id"])["state"] == "done"
            first = client.result(job["id"])
            stats = client.stats()
            assert stats["journal"]["appends"] >= 2
            # A fresh journal recovers nothing (but still reports so).
            assert stats["journal"]["recovery"] == {
                "restored": 0, "requeued": 0, "unrecoverable": 0}

        with BackgroundServer(workers=1,
                              journal_dir=str(journal_dir)) as server:
            client = server.client()
            stats = client.stats()
            assert stats["journal"]["recovery"] == {
                "restored": 1, "requeued": 0, "unrecoverable": 0}
            # Served verbatim from the journal, no re-run needed.
            assert client.result(job["id"]) == first
            # The id counter resumed past the journaled history.
            fresh = client.submit(_run_spec(60.0))
            assert fresh["id"] == "job-000002"
            assert client.wait(fresh["id"])["state"] == "done"

    def test_terminal_record_is_durable_before_job_reads_done(
            self, tmp_path, monkeypatch):
        """A client that sees ``done`` never races the journal: a slow
        terminal append still lands before the state is observable."""
        record_terminal = JobJournal.record_terminal

        def slow_record_terminal(journal, job):
            time.sleep(0.3)
            record_terminal(journal, job)

        monkeypatch.setattr(JobJournal, "record_terminal",
                            slow_record_terminal)
        with BackgroundServer(workers=1,
                              journal_dir=str(tmp_path / "journal")
                              ) as server:
            client = server.client()
            job = client.submit(_run_spec(50.0))
            assert client.wait(job["id"], poll_s=0.01)["state"] == "done"
            assert client.stats()["journal"]["appends"] == 2

    def test_sigkill_and_restart_recovers_every_job(self, tmp_path):
        """The acceptance scenario: SIGKILL the daemon mid-run, restart
        on the same journal, and every job reaches a terminal state
        with bit-identical results."""
        journal_dir = tmp_path / "journal"
        cache_dir = tmp_path / "cache"
        first_doc, interrupted_id = self._life_one(
            tmp_path, journal_dir, cache_dir)

        # Life 2: same journal, same cache.
        with _daemon(tmp_path, journal_dir, cache_dir,
                     "ready2.json") as client:
            stats = client.stats()
            recovery = stats["journal"]["recovery"]
            assert recovery["restored"] == 1
            assert recovery["requeued"] == 1
            assert recovery["unrecoverable"] == 0
            # The finished job's document survived the kill verbatim.
            assert client.result("job-000001") == first_doc
            # The interrupted job re-ran under its original id...
            done = client.wait(interrupted_id, timeout=120.0)
            assert done["state"] == "done"
            recovered = client.result(interrupted_id)["result"]
            # ...to a bit-identical result: a fresh submission of the
            # same spec produces byte-equal JSON.
            fresh = client.submit(_explore_spec([80.0, 95.0, 110.0]))
            assert client.wait(fresh["id"],
                               timeout=120.0)["state"] == "done"
            reference = client.result(fresh["id"])["result"]
            assert json.dumps(recovered, sort_keys=True) \
                == json.dumps(reference, sort_keys=True)

    def _life_one(self, tmp_path, journal_dir, cache_dir):
        process, client = _boot_daemon(tmp_path, journal_dir, cache_dir,
                                       "ready1.json")
        try:
            job = client.submit(_run_spec(50.0))
            assert client.wait(job["id"], timeout=120.0)["state"] == "done"
            first_doc = client.result(job["id"])
            interrupted = client.submit(
                _explore_spec([80.0, 95.0, 110.0]))
            # No graceful anything: the journal is the only survivor.
            process.send_signal(signal.SIGKILL)
            process.wait(timeout=30.0)
        finally:
            if process.poll() is None:
                process.kill()
                process.wait(timeout=30.0)
        return first_doc, interrupted["id"]
