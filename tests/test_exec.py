"""Tests for the execution backend subsystem: the executor registry,
backend equivalence, the lease-based work queue, and the distributed
executor (local fallback, dispatch endpoints, worker crash recovery)."""

import json
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.api import SimOptions, Simulator
from repro.exceptions import ConfigurationError
from repro.exec import (
    InlineExecutor,
    ProcessExecutor,
    SimulationExecutor,
    ThreadExecutor,
    available_executors,
    create_executor,
    register_executor,
    resolve_executor,
)
from repro.exec.distributed import DistributedExecutor
from repro.exec.queue import WorkQueue
from repro.resilience import QUARANTINE_THRESHOLD
from repro.serve import BackgroundServer
from repro.usecases import UseCaseConfig, build_rhythmic
from repro.usecases.fig5 import build_fig5_design

REPO_ROOT = Path(__file__).resolve().parent.parent


def _sweep_items(rates):
    design = build_fig5_design()
    return [(design, SimOptions(frame_rate=float(rate)))
            for rate in rates]


# --- the executor registry --------------------------------------------------

class TestExecutorRegistry:
    def test_builtin_backends_are_registered(self):
        assert {"inline", "thread", "process"} <= set(
            available_executors())

    def test_create_by_name(self):
        assert isinstance(create_executor("inline"), InlineExecutor)
        assert isinstance(create_executor("thread"), ThreadExecutor)
        assert isinstance(create_executor("process"), ProcessExecutor)

    def test_unknown_executor_rejected_with_available_list(self):
        with pytest.raises(ConfigurationError) as excinfo:
            create_executor("quantum")
        assert "quantum" in str(excinfo.value)
        assert "thread" in str(excinfo.value)

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ConfigurationError):
            register_executor("thread", ThreadExecutor)

    def test_replace_allows_override(self):
        class _Custom(ThreadExecutor):
            name = "thread"

        register_executor("thread", _Custom, replace=True)
        try:
            assert isinstance(create_executor("thread"), _Custom)
        finally:
            register_executor("thread", ThreadExecutor, replace=True)

    def test_resolve_none_defaults_to_thread(self):
        assert resolve_executor(None).name == "thread"

    def test_resolve_honors_environment(self, monkeypatch):
        monkeypatch.setenv("REPRO_EXECUTOR", "inline")
        assert resolve_executor(None).name == "inline"

    def test_resolve_instance_passthrough(self):
        executor = InlineExecutor()
        assert resolve_executor(executor) is executor

    def test_resolve_rejects_other_types(self):
        with pytest.raises(ConfigurationError):
            resolve_executor(42)

    def test_simulator_accepts_instance(self):
        with Simulator(executor=InlineExecutor(), cache=False) as session:
            assert session.pool_info()["executor"] == "inline"
            result = session.run(build_fig5_design())
        assert result.ok

    def test_simulator_env_backend(self, monkeypatch):
        monkeypatch.setenv("REPRO_EXECUTOR", "inline")
        with Simulator(cache=False) as session:
            assert session.pool_info()["executor"] == "inline"

    def test_executor_info_describes_backend(self):
        with Simulator(executor="inline", cache=False) as session:
            doc = session.executor_info()
        assert doc == {"backend": "inline",
                       "requires_serializable": False}


# --- backend equivalence ----------------------------------------------------

class TestBackendEquivalence:
    def test_inline_thread_process_bit_identical(self):
        """The same batch through all three local backends, compared as
        serialized documents: the refactor must not perturb results."""
        items = _sweep_items([24.0, 30.0, 60.0])
        documents = {}
        for backend in ("inline", "thread", "process"):
            with Simulator(executor=backend, cache=False) as session:
                results = session.run_many(items)
            for result in results:
                assert result.ok, f"{backend}: {result.failure}"
            documents[backend] = [
                {key: value for key, value in result.to_dict().items()
                 if key != "elapsed_s"}  # wall clock is not a result
                for result in results]
        assert documents["inline"] == documents["thread"]
        assert documents["inline"] == documents["process"]

    def test_inline_runs_on_the_calling_thread(self):
        with Simulator(executor="inline", cache=False) as session:
            results = session.run_many(_sweep_items([31.0, 37.0]))
            stats = session.last_batch_stats
        assert all(result.ok for result in results)
        assert stats.workers_used == 1

    def test_session_reuses_its_process_pool(self):
        """Five uncached process-mode batches through one session (warm
        workers) beat a fresh session per batch by >= 1.5x."""
        items = [(design, SimOptions(frame_rate=rate))
                 for design in (build_fig5_design(),
                                build_rhythmic(UseCaseConfig("2D-In", 65)))
                 for rate in (20.0, 30.0, 40.0)]

        def batch(session):
            assert all(result.ok for result in session.run_many(items))

        started = time.perf_counter()
        for _ in range(5):
            with Simulator(cache=False, executor="process",
                           max_workers=2) as session:
                batch(session)
        fresh_s = time.perf_counter() - started
        started = time.perf_counter()
        with Simulator(cache=False, executor="process",
                       max_workers=2) as session:
            for _ in range(5):
                batch(session)
        reused_s = time.perf_counter() - started
        assert fresh_s / reused_s >= 1.5


# --- the lease-based work queue ---------------------------------------------

def _task(task_id, payload="x"):
    return {"task_id": task_id, "payload": payload, "attempt": 0}


class TestWorkQueue:
    def test_claim_complete_roundtrip(self):
        queue = WorkQueue(lease_ttl_s=30.0)
        queue.enqueue([_task("t1"), _task("t2")])
        grant = queue.register_worker({"pid": 123})
        assert grant["lease_ttl_s"] == 30.0
        worker = grant["worker_id"]
        tasks = queue.claim(worker, max_tasks=8)
        assert [task["task_id"] for task in tasks] == ["t1", "t2"]
        assert queue.outstanding_leases() == 2
        reply = queue.complete(worker, [
            {"task_id": "t1", "result": {"n": 1}},
            {"task_id": "t2", "result": {"n": 2}}])
        assert reply["accepted"] == 2
        outcomes = queue.collect(["t1", "t2"])
        assert outcomes["t1"] == {"state": "done", "worker": worker,
                                  "result": {"n": 1}}
        assert queue.outstanding_leases() == 0

    def test_duplicate_task_id_rejected(self):
        queue = WorkQueue(lease_ttl_s=30.0)
        queue.enqueue([_task("t1")])
        with pytest.raises(ConfigurationError):
            queue.enqueue([_task("t1")])

    def test_unknown_worker_raises_key_error(self):
        queue = WorkQueue(lease_ttl_s=30.0)
        with pytest.raises(KeyError):
            queue.claim("w99")
        with pytest.raises(KeyError):
            queue.heartbeat("w99")
        with pytest.raises(KeyError):
            queue.deregister_worker("w99")

    def test_expiry_strikes_and_redispatches_solo(self):
        queue = WorkQueue(lease_ttl_s=10.0)
        queue.enqueue([_task("t1"), _task("t2")])
        worker = queue.register_worker()["worker_id"]
        queue.claim(worker, max_tasks=2)
        now = time.monotonic()
        assert queue.expire_leases(now=now) == 0  # not due yet
        assert queue.expire_leases(now=now + 11.0) == 2
        # Both re-enter the queue as solo suspects with a bumped
        # attempt, and the worker is marked lost.
        assert queue.live_workers() == 0
        second = queue.register_worker()["worker_id"]
        batch = queue.claim(second, max_tasks=8)
        assert len(batch) == 1  # solo suspects never share a batch
        assert batch[0]["attempt"] == 1

    def test_quarantine_after_threshold_strikes(self):
        queue = WorkQueue(lease_ttl_s=10.0)
        queue.enqueue([_task("t1")])
        deadline = 0.0
        for strike in range(QUARANTINE_THRESHOLD):
            worker = queue.register_worker()["worker_id"]
            assert queue.claim(worker, max_tasks=1)
            deadline = time.monotonic() + 11.0 + strike
            assert queue.expire_leases(now=deadline) == 1
        outcome = queue.collect(["t1"])["t1"]
        assert outcome["state"] == "expired"
        assert outcome["strikes"] == QUARANTINE_THRESHOLD
        assert queue.describe()["quarantined_total"] == 1

    def test_graceful_deregister_releases_without_strikes(self):
        queue = WorkQueue(lease_ttl_s=10.0)
        queue.enqueue([_task("t1")])
        worker = queue.register_worker()["worker_id"]
        queue.claim(worker, max_tasks=1)
        reply = queue.deregister_worker(worker)
        assert reply["released"] == 1
        second = queue.register_worker()["worker_id"]
        [task] = queue.claim(second, max_tasks=1)
        assert task["attempt"] == 0  # an orderly goodbye is no strike

    def test_stale_complete_after_expiry_is_dropped(self):
        queue = WorkQueue(lease_ttl_s=10.0)
        queue.enqueue([_task("t1")])
        first = queue.register_worker()["worker_id"]
        queue.claim(first, max_tasks=1)
        queue.expire_leases(now=time.monotonic() + 11.0)
        second = queue.register_worker()["worker_id"]
        queue.claim(second, max_tasks=1)
        # The zombie first worker reports after losing its lease.
        reply = queue.complete(first, [
            {"task_id": "t1", "result": {"zombie": True}}])
        assert reply["accepted"] == 0 and reply["stale"] == 1
        reply = queue.complete(second, [
            {"task_id": "t1", "result": {"fresh": True}}])
        assert reply["accepted"] == 1
        assert queue.collect(["t1"])["t1"]["result"] == {"fresh": True}

    def test_heartbeat_renews_lease_deadlines(self, monkeypatch):
        import repro.exec.queue as queue_module

        class _Clock:
            now = 1000.0

            def monotonic(self):
                return self.now

        clock = _Clock()
        monkeypatch.setattr(queue_module, "time", clock)
        queue = WorkQueue(lease_ttl_s=10.0)
        queue.enqueue([_task("t1")])
        worker = queue.register_worker()["worker_id"]
        queue.claim(worker, max_tasks=1)  # lease deadline: 1010
        clock.now = 1008.0
        assert queue.heartbeat(worker, ["t1"])["renewed"] == 1  # -> 1018
        assert queue.expire_leases(now=1011.0) == 0  # outlived original
        assert queue.expire_leases(now=1019.0) == 1

    def test_heartbeat_after_being_marked_lost_is_rejected(self):
        queue = WorkQueue(lease_ttl_s=10.0)
        queue.enqueue([_task("t1")])
        worker = queue.register_worker()["worker_id"]
        queue.claim(worker, max_tasks=1)
        queue.expire_leases(now=time.monotonic() + 11.0)
        with pytest.raises(KeyError):
            queue.heartbeat(worker)  # the cue to re-register

    def test_env_knobs_and_validation(self, monkeypatch):
        monkeypatch.setenv("REPRO_LEASE_TTL_S", "6")
        monkeypatch.setenv("REPRO_HEARTBEAT_S", "1.5")
        queue = WorkQueue()
        assert queue.lease_ttl_s == 6.0
        assert queue.heartbeat_s == 1.5
        monkeypatch.setenv("REPRO_LEASE_TTL_S", "soon")
        with pytest.raises(ConfigurationError):
            WorkQueue()
        with pytest.raises(ConfigurationError):
            WorkQueue(lease_ttl_s=-1.0)
        with pytest.raises(ConfigurationError):
            WorkQueue(lease_ttl_s=1.0, heartbeat_s=2.0)

    def test_withdraw_skips_leased_tasks(self):
        queue = WorkQueue(lease_ttl_s=10.0)
        queue.enqueue([_task("t1"), _task("t2")])
        worker = queue.register_worker()["worker_id"]
        queue.claim(worker, max_tasks=1)  # t1 leased, t2 pending
        withdrawn = queue.withdraw(["t1", "t2"])
        assert [task["task_id"] for task in withdrawn] == ["t2"]
        assert queue.outstanding_leases() == 1


# --- the distributed executor -----------------------------------------------

class TestDistributedExecutor:
    def test_falls_back_locally_when_no_worker_ever_connects(self):
        queue = WorkQueue(lease_ttl_s=30.0)
        executor = DistributedExecutor(queue, fallback_after_s=0.2)
        items = _sweep_items([41.0, 43.0])
        started = time.monotonic()
        with Simulator(executor=executor, cache=False) as session:
            results = session.run_many(items)
        assert all(result.ok for result in results)
        assert time.monotonic() - started < 20.0
        assert queue.describe()["completed_total"] == 0  # ran locally

    def test_session_close_releases_the_fallback_pool(self, slow_jobs):
        executor = DistributedExecutor(WorkQueue(lease_ttl_s=30.0),
                                       fallback_after_s=0.0)
        session = Simulator(executor=executor, cache=False)
        # Two slow jobs: the first runs on the calling thread, the second
        # in the fallback's pool.
        assert all(result.ok for result in
                   session.run_many(_sweep_items([37.0, 39.0])))
        fallback = executor._local._pool
        assert fallback is not None
        assert session.pool_info()["thread_pool_width"] >= 1
        session.close()
        assert executor._local._pool is None
        assert session.pool_info()["thread_pool_width"] == 0
        with pytest.raises(RuntimeError):
            fallback.submit(int)  # shut down, not merely dropped

    def test_falls_back_when_the_fleet_goes_silent(self):
        queue = WorkQueue(lease_ttl_s=0.3, heartbeat_s=0.1)
        executor = DistributedExecutor(queue)
        queue.register_worker({"pid": 0})  # registers, never claims
        with Simulator(executor=executor, cache=False) as session:
            results = session.run_many(_sweep_items([47.0]))
        assert results[0].ok

    def test_remote_execution_through_dispatch_endpoints(self, tmp_path):
        """A real worker subprocess serves the batch over HTTP."""
        spec = {"schema": "repro.explore-spec/1", "usecase": "fig5",
                "engine": "object",
                "space": {"name": "options.frame_rate",
                          "values": [81.0, 83.0, 87.0, 89.0]},
                "objectives": ["energy_per_frame"]}
        cache = tmp_path / "cache"
        with BackgroundServer(dispatch=True, workers=1, chunk_size=4,
                              cache_dir=str(cache),
                              lease_ttl_s=30.0) as server:
            env = dict(os.environ)
            env["PYTHONPATH"] = str(REPO_ROOT / "src")
            process = subprocess.Popen(
                [sys.executable, "-m", "repro", "worker",
                 "--connect", server.url, "--cache-dir", str(cache),
                 "--batch-size", "2"],
                cwd=REPO_ROOT, env=env)
            try:
                client = server.client()
                job = client.submit(spec)
                final = client.wait(job["id"], timeout=120.0)
                assert final["state"] == "done"
                stats = client.stats()
                dispatch = stats["dispatch"]
                assert dispatch["completed_total"] == 4
                assert dispatch["expired_total"] == 0
                [worker] = dispatch["workers"]
                assert worker["alive"] and worker["completed"] == 4
                assert stats["executor"]["backend"] == "distributed"
                points = client.result(job["id"])["result"]["points"]
                assert all(point["feasible"] for point in points)
            finally:
                process.terminate()
                assert process.wait(timeout=30.0) == 0

    def test_sigkilled_worker_leases_expire_and_work_completes(
            self, tmp_path):
        """Chaos: kill-injected workers die mid-batch; the coordinator
        expires their leases, re-dispatches solo, and finishes 100%."""
        spec = {"schema": "repro.explore-spec/1", "usecase": "fig5",
                "engine": "object",
                "space": {"name": "options.frame_rate",
                          "values": [91.0, 93.0, 97.0, 101.0,
                                     103.0, 107.0]},
                "objectives": ["energy_per_frame"]}
        cache = tmp_path / "cache"
        with BackgroundServer(dispatch=True, workers=1, chunk_size=6,
                              cache_dir=str(cache),
                              lease_ttl_s=1.5) as server:
            env = dict(os.environ)
            env["PYTHONPATH"] = str(REPO_ROOT / "src")
            # Kill faults live ONLY in the worker environment — an
            # inline kill in the coordinator would take the test down.
            env["REPRO_FAULTS"] = json.dumps(
                {"kill_rate": 0.5, "seed": 3})
            process = subprocess.Popen(
                [sys.executable, "-m", "repro", "worker", "--respawn",
                 "--connect", server.url, "--cache-dir", str(cache),
                 "--batch-size", "3"],
                cwd=REPO_ROOT, env=env)
            try:
                client = server.client()
                deadline = time.monotonic() + 60.0
                while not client.stats()["dispatch"]["workers"]:
                    assert time.monotonic() < deadline, \
                        "worker never registered"
                    time.sleep(0.1)
                job = client.submit(spec)
                final = client.wait(job["id"], timeout=180.0)
                assert final["state"] == "done"
                points = client.result(job["id"])["result"]["points"]
                assert all(point["feasible"] for point in points)
                stats = client.stats()
                assert stats["dispatch"]["expired_total"] > 0
                assert stats["resilience"]["lease_expiries"] > 0
                # Killed incarnations show up dead in the worker table
                # next to the live respawned one.
                workers = stats["dispatch"]["workers"]
                assert sum(1 for worker in workers
                           if not worker["active"]) > 0
            finally:
                process.terminate()
                assert process.wait(timeout=30.0) == 0

    def test_quarantined_task_fails_typed_without_hanging(
            self, monkeypatch):
        """A task whose every lease dies comes back as a typed
        WorkerCrashError result instead of cycling forever.

        The queue's clock is virtual so the orchestration is exact:
        two workers each claim the task and silently die (their leases
        expire); a live bystander worker keeps heartbeating throughout
        so the coordinator's stranded-fleet fallback never takes the
        task back for local execution.
        """
        import repro.exec.queue as queue_module

        class _Clock:
            now = 1000.0

            def monotonic(self):
                return self.now

        clock = _Clock()
        import repro.exec.distributed as distributed_module
        # Queue and executor must share the virtual clock: liveness is
        # "now - last_heartbeat", and mixing a real clock into the
        # fallback check would make every worker look ancient.
        monkeypatch.setattr(queue_module, "time", clock)
        monkeypatch.setattr(distributed_module, "time", clock)
        queue = WorkQueue(lease_ttl_s=10.0)
        executor = DistributedExecutor(queue, fallback_after_s=3600.0)
        outcome = {}

        def run_batch():
            with Simulator(executor=executor, cache=False) as session:
                [result] = session.run_many(_sweep_items([109.0]))
                outcome["result"] = result
                outcome["stats"] = session.last_batch_stats

        runner = threading.Thread(target=run_batch, daemon=True)
        runner.start()
        deadline = time.monotonic() + 30.0
        while queue.describe()["queue_depth"] == 0:
            assert time.monotonic() < deadline, "batch never enqueued"
            assert runner.is_alive(), "batch finished prematurely"
            time.sleep(0.01)
        bystander = queue.register_worker()["worker_id"]
        for strike in range(QUARANTINE_THRESHOLD):
            victim = queue.register_worker()["worker_id"]
            claim_deadline = time.monotonic() + 30.0
            while not queue.claim(victim, max_tasks=1):
                assert time.monotonic() < claim_deadline
                time.sleep(0.01)
            # The victim dies silently; the bystander heartbeats
            # mid-lease so its own liveness never lapses while the
            # victim's lease crosses its deadline.
            clock.now += 6.0
            queue.heartbeat(bystander)
            clock.now += 5.0
        runner.join(timeout=30.0)
        assert not runner.is_alive(), "coordinator hung"
        result, stats = outcome["result"], outcome["stats"]
        assert not result.ok
        assert result.error_type == "WorkerCrashError"
        assert "quarantined" in result.failure
        assert stats.lease_expiries >= QUARANTINE_THRESHOLD
        assert stats.quarantined == 1
