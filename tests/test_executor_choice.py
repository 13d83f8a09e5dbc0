"""Where the default ``thread`` backend runs a batch's jobs.

Without a per-task deadline and under a GIL, jobs run one by one on the
calling thread while their running mean wall time stays within
``sys.getswitchinterval()``; the rest of the batch goes to the pool the
first time the mean goes over.  A deadline sends every job to the pool.
The slow cases sleep inside the engine (the ``slow_jobs`` fixture), since
the repo's designs simulate in well under a millisecond.
"""

from __future__ import annotations

import sys
import time

import pytest

import repro.api.simulator as simulator_module
from repro.api import SimOptions, Simulator
from repro.resilience import RetryPolicy
from repro.robust import default_variation, monte_carlo
from repro.usecases import UseCaseConfig, build_rhythmic
from repro.usecases.fig5 import build_fig5_design


def _rates(count):
    design = build_fig5_design()
    return [(design, SimOptions(frame_rate=float(rate)))
            for rate in range(10, 10 + count)]


def _grid():
    return [build_rhythmic(UseCaseConfig(placement, node))
            for node in (130, 65)
            for placement in ("2D-In", "2D-Off", "3D-In")]


class TestThreadBackendChoice:
    def test_fast_batch_runs_on_the_calling_thread(self):
        simulator = Simulator()
        results = simulator.run_many(_rates(64))
        assert all(result.ok for result in results)
        assert simulator.last_batch_stats.workers_used == 1
        assert simulator._executor._pool is None
        assert simulator.pool_info()["thread_pool_width"] == 0

    def test_slow_batch_fans_out_to_the_pool(self, slow_jobs):
        simulator = Simulator(max_workers=4)
        designs = _grid()
        results = simulator.run_many(designs)
        assert [result.design_name for result in results] \
            == [design.name for design in designs]
        assert all(result.ok for result in results)
        assert simulator.last_batch_stats.workers_used >= 2
        assert simulator._executor._pool is not None
        simulator.close()

    def test_one_stalled_job_does_not_fan_out(self, monkeypatch):
        """The running mean decides, not one job: a stall of three
        switch intervals in the tenth job stays on the calling thread."""
        real_engine = simulator_module._simulate_graph
        calls = []

        def stalling_engine(*args, **kwargs):
            calls.append(None)
            if len(calls) == 10:
                time.sleep(3 * sys.getswitchinterval())
            return real_engine(*args, **kwargs)

        monkeypatch.setattr(simulator_module, "_simulate_graph",
                            stalling_engine)
        simulator = Simulator(cache=False)
        results = simulator.run_many(_rates(32))
        assert len(calls) == 32 and all(result.ok for result in results)
        assert simulator.last_batch_stats.workers_used == 1
        assert simulator._executor._pool is None

    def test_without_a_gil_fast_jobs_use_the_pool(self, monkeypatch):
        monkeypatch.setattr(sys, "_is_gil_enabled", lambda: False,
                            raising=False)
        simulator = Simulator(cache=False)
        assert all(result.ok for result in simulator.run_many(_rates(8)))
        assert simulator._executor._pool is not None
        simulator.close()

    def test_deadline_keeps_fast_jobs_in_the_pool(self):
        simulator = Simulator(cache=False,
                              retry=RetryPolicy(timeout_s=30.0))
        results = simulator.run_many(_rates(8))
        assert all(result.ok for result in results)
        assert simulator._executor._pool is not None
        simulator.close()

    def test_deadline_still_reports_a_typed_timeout(self, monkeypatch):
        real_engine = simulator_module._simulate_graph

        def hung_engine(*args, **kwargs):
            time.sleep(1.0)
            return real_engine(*args, **kwargs)

        monkeypatch.setattr(simulator_module, "_simulate_graph",
                            hung_engine)
        simulator = Simulator(cache=False,
                              retry=RetryPolicy(max_attempts=1,
                                                timeout_s=0.1))
        [result] = simulator.run_many(_rates(1))
        assert result.error_type == "ExecutionTimeoutError"
        assert simulator.last_batch_stats.timeouts == 1
        assert simulator._executor._pool is not None
        simulator.close(wait=False)


@pytest.fixture(scope="module")
def inline_document():
    with Simulator(executor="inline") as simulator:
        return monte_carlo(build_fig5_design(), default_variation(),
                           samples=64, seed=11,
                           simulator=simulator).to_json()


@pytest.mark.parametrize("executor", ["thread", "process"])
def test_study_documents_match_inline(executor, inline_document):
    with Simulator(executor=executor, max_workers=2) as simulator:
        document = monte_carlo(build_fig5_design(), default_variation(),
                               samples=64, seed=11,
                               simulator=simulator).to_json()
    assert document == inline_document
