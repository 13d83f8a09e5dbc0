"""Tests for the engine fast paths behind the event-driven simulator PR.

Covers the once-per-run mapping resolution, the cached DAG traversals,
the timeline's stage index, the memoized pre-simulation checks, and the
batch-API refinements (shared-options process batches, accurate
``workers_used``).
"""

import time

import pytest

from repro import simulate
from repro.api import Design, SimOptions, Simulator
from repro.exceptions import SimulationError, StallError
from repro.explore import choice, explore
from repro.sim import checks as checks_module
from repro.sim.cycle_sim import DigitalTimeline, UnitActivity
from repro.sim.mapping import Mapping
from repro.sw.dag import StageGraph
from repro.sw.stage import ProcessStage
from repro.usecases import build_rhythmic, rhythmic_configs
from repro.usecases.fig5 import (
    FIG5_MAPPING,
    build_fig5_design,
    build_fig5_stages,
    build_fig5_system,
)


def _activity(stage, unit="PE", start=0.0):
    return UnitActivity(unit_name=unit, stage_name=stage, cycles=1.0,
                        start=start, duration=1.0, energy=0.0)


class TestTimelineIndex:
    def test_lookup_and_missing(self):
        timeline = DigitalTimeline(activities=[_activity("A"),
                                               _activity("B")])
        assert timeline.activity_for("B").stage_name == "B"
        with pytest.raises(SimulationError, match="no digital activity"):
            timeline.activity_for("Missing")

    def test_first_record_wins_like_the_old_scan(self):
        first = _activity("A", start=0.0)
        second = _activity("A", start=5.0)
        timeline = DigitalTimeline(activities=[first, second])
        assert timeline.activity_for("A") is first

    def test_index_sees_activities_appended_after_a_lookup(self):
        timeline = DigitalTimeline(activities=[_activity("A")])
        assert timeline.activity_for("A").stage_name == "A"
        timeline.activities.append(_activity("B"))
        assert timeline.activity_for("B").stage_name == "B"


class TestCachedTraversals:
    def test_topological_order_is_cached(self):
        graph = StageGraph(build_fig5_stages())
        assert graph.topological_order is graph.topological_order

    def test_edges_are_cached(self):
        graph = StageGraph(build_fig5_stages())
        assert graph.edges() is graph.edges()
        assert [(p.name, c.name) for p, c in graph.edges()] == [
            ("Input", "Binning"), ("Binning", "EdgeDetection")]

    def test_resolve_can_skip_validation(self):
        graph = StageGraph(build_fig5_stages())
        system = build_fig5_system()
        mapping = Mapping(dict(FIG5_MAPPING))
        validated = mapping.resolve(graph, system)
        fast = mapping.resolve(graph, system, validate=False)
        assert validated.keys() == fast.keys()

    def test_design_resolved_units_cached(self):
        design = build_fig5_design()
        assert design.resolved_units is design.resolved_units
        assert set(design.resolved_units) == set(FIG5_MAPPING)


class _CheckCounter:
    """Counting wrapper around run_pre_simulation_checks."""

    def __init__(self, wrapped):
        self.wrapped = wrapped
        self.calls = 0

    def __call__(self, *args, **kwargs):
        self.calls += 1
        return self.wrapped(*args, **kwargs)


@pytest.fixture
def check_counter(monkeypatch):
    counter = _CheckCounter(checks_module.run_pre_simulation_checks)
    monkeypatch.setattr(checks_module, "run_pre_simulation_checks", counter)
    return counter


class TestMemoizedChecks:
    def test_design_checks_run_once_across_options(self, check_counter):
        design = build_fig5_design()
        simulator = Simulator(cache=False)
        assert simulator.run(design, SimOptions(frame_rate=30)).ok
        assert simulator.run(design, SimOptions(frame_rate=60)).ok
        assert simulator.run(design, SimOptions(frame_rate=90)).ok
        assert check_counter.calls == 1

    def test_identical_designs_share_the_session_check(self, check_counter):
        simulator = Simulator(cache=False)
        assert simulator.run(build_fig5_design()).ok
        assert simulator.run(build_fig5_design()).ok  # same content hash
        assert check_counter.calls == 1

    def test_skip_checks_option_never_runs_them(self, check_counter):
        simulator = Simulator(SimOptions(skip_checks=True), cache=False)
        assert simulator.run(build_fig5_design()).ok
        assert check_counter.calls == 0

    def test_failing_checks_are_memoized_and_reraised(self):
        design = build_fig5_design()
        boom = StallError("synthetic check failure")

        calls = []

        def failing(*args, **kwargs):
            calls.append(1)
            raise boom

        original = checks_module.run_pre_simulation_checks
        checks_module.run_pre_simulation_checks = failing
        try:
            with pytest.raises(StallError):
                design.ensure_checked()
            with pytest.raises(StallError):
                design.ensure_checked()
        finally:
            checks_module.run_pre_simulation_checks = original
        assert len(calls) == 1  # the failure is cached, not re-walked

    def test_sweep_frame_rate_checks_once(self, check_counter):
        simulator = Simulator(cache=False)
        points = _frame_rate_sweep([15.0, 30.0, 60.0], simulator).points
        assert all(point.feasible for point in points)
        assert check_counter.calls == 1


def _frame_rate_sweep(frame_rates, simulator):
    """The Fig. 5 design over ``frame_rates`` on the per-point path."""
    return explore(choice("options.frame_rate", frame_rates),
                   build_fig5_design, objectives=("energy_per_frame",),
                   simulator=simulator, annotate=False, engine="object")


class TestSweepOptionsInheritance:
    def test_frame_rate_sweep_keeps_session_defaults(self):
        captured = []
        simulator = Simulator(SimOptions(exposure_slots=2))
        original = simulator.run_many

        def spying_run_many(items, options=None):
            captured.extend(items)
            return original(items, options)

        simulator.run_many = spying_run_many
        _frame_rate_sweep([15.0, 30.0], simulator)
        assert [options.frame_rate for _, options in captured] == [15.0, 30.0]
        assert all(options.exposure_slots == 2 for _, options in captured)


class _CustomStage(ProcessStage):
    """A user-defined stage type the serializer doesn't know."""


def _unserializable_design() -> Design:
    stages = build_fig5_stages()
    custom = _CustomStage("EdgeDetection", input_size=(16, 16, 1),
                          kernel=(3, 3, 1), stride=(1, 1, 1),
                          padding="same")
    custom.set_input_stage(stages[1])
    return Design(stages[:2] + [custom], build_fig5_system(),
                  dict(FIG5_MAPPING))


class TestBatchWorkers:
    def test_cached_only_batch_reports_zero_workers(self):
        simulator = Simulator()
        designs = [build_fig5_design()]
        assert all(r.ok for r in simulator.run_many(designs))
        assert all(r.cached for r in simulator.run_many(designs))
        assert simulator.last_batch_stats.workers_used == 0

    def test_rhythmic_grid_batch_matches_and_keeps_pace(self):
        """Fig. 9a's grid through ``run_many`` equals a sequential
        ``simulate()`` loop, and the batch machinery never dominates:
        a cold batch stays under 5x the loop plus 0.25 s of pool
        startup (loose on purpose: both sides take milliseconds)."""
        designs = [build_rhythmic(config) for config in rhythmic_configs()]
        started = time.perf_counter()
        sequential = [simulate(design.stages, design.system,
                               design.mapping, frame_rate=30.0)
                      for design in designs]
        sequential_s = time.perf_counter() - started

        with Simulator() as simulator:
            started = time.perf_counter()
            batched = simulator.run_many(designs)
            batch_cold_s = time.perf_counter() - started
            stats = simulator.last_batch_stats
            warm = simulator.run_many(designs)
            warm_stats = simulator.last_batch_stats

        assert [r.design_name for r in batched] == [d.name for d in designs]
        assert all(result.ok for result in batched)
        for direct, result in zip(sequential, batched):
            assert result.report.total_energy == direct.total_energy
        assert all(result.cached for result in warm)
        assert batch_cold_s < 5.0 * sequential_s + 0.25
        assert stats.max_workers >= 2
        assert warm_stats.cache_hits == len(designs)
        assert warm_stats.workers_used == 0

    def test_inline_jobs_count_the_calling_thread(self):
        simulator = Simulator(executor="process", max_workers=2)
        results = simulator.run_many([_unserializable_design()])
        assert results[0].ok
        # The unserializable design never reached the pool, but work
        # happened: the caller is reported as the one worker used.
        assert simulator.last_batch_stats.workers_used == 1

    def test_process_batch_with_uniform_options(self):
        simulator = Simulator(executor="process", max_workers=2)
        designs = [build_fig5_design(), build_fig5_design()]
        results = simulator.run_many(designs, SimOptions(frame_rate=45.0))
        assert all(result.ok for result in results)
        assert all(result.options.frame_rate == 45.0 for result in results)

    def test_process_batch_with_mixed_options(self):
        simulator = Simulator(executor="process", max_workers=2)
        design = build_fig5_design()
        items = [(design, SimOptions(frame_rate=30.0)),
                 (design, SimOptions(frame_rate=60.0))]
        results = simulator.run_many(items)
        assert all(result.ok for result in results)
        assert [result.options.frame_rate for result in results] == [30.0,
                                                                     60.0]
