"""Tests for the pass-level incremental simulation engine.

The engine (:mod:`repro.sim.simulator`) runs as declared passes
(:data:`SIM_PASSES`); design-only passes memoize per design, so option
sweeps re-run only the option-dependent passes — and the result must be
bit-identical to the pre-split monolithic body, which is kept here as
:func:`_simulate_graph_monolithic` exactly for these assertions.  A call
over columns of operating points must equal that body called once per
row.
"""

import pytest

from repro.api import Design, SimOptions, Simulator
from repro.api.result import OptionColumns, ResultBlock
from repro.energy.analog_model import analog_energy, analog_usage
from repro.energy.comm_model import communication_energy
from repro.energy.digital_model import digital_energy
from repro.energy.report import EnergyReport
from repro.exceptions import TimingError
from repro.explore import choice, explore
from repro.sim.checks import run_pre_simulation_checks
from repro.sim.cycle_sim import cycle_accurate_latency, simulate_digital
from repro.sim.delay import estimate_frame_timing
from repro.sim.simulator import (
    SIM_PASSES,
    PassCounters,
    PassMemo,
    _simulate_graph,
)
from repro.usecases import UseCaseConfig, build_edgaze, build_rhythmic
from repro.usecases.fig5 import build_fig5_design

_DESIGN_ONLY = {"resolve", "checks", "timeline", "cycle_sim",
                "analog_usage", "comm_energy"}
_OPTION_DEPENDENT = {"timing", "analog_energy", "digital_energy"}


def _simulate_graph_monolithic(graph, system, mapping, frame_rate,
                               exposure_slots=1, cycle_accurate=False,
                               skip_checks=False, mapping_validated=False,
                               resolved=None):
    """The pre-split single-body engine, kept as the equivalence oracle.

    Ground truth for the pass-level engine: :func:`_simulate_graph` —
    memoized or not — must produce bit-identical :class:`EnergyReport`
    payloads to this body for every option combination.
    """
    if not mapping_validated:
        mapping.validate(graph, system)
    if resolved is None:
        resolved = mapping.resolve(graph, system, validate=False)
    if not skip_checks:
        run_pre_simulation_checks(graph, system, mapping, resolved=resolved)

    timeline = simulate_digital(graph, system, mapping, resolved=resolved)
    digital_latency = timeline.total_latency
    if cycle_accurate:
        digital_latency = cycle_accurate_latency(graph, system, mapping,
                                                 resolved=resolved)

    participating = analog_usage(graph, system, mapping, resolved=resolved)
    timing = estimate_frame_timing(
        frame_rate=frame_rate,
        digital_latency=digital_latency,
        num_analog_arrays=len(participating),
        exposure_slots=exposure_slots)

    report = EnergyReport(
        system_name=system.name,
        frame_rate=frame_rate,
        frame_time=timing.frame_time,
        digital_latency=digital_latency,
        analog_stage_delay=timing.analog_stage_delay)
    report.extend(analog_energy(participating, timing.analog_stage_delay))
    report.extend(digital_energy(system, timeline, timing.frame_time))
    report.extend(communication_energy(graph, system, mapping,
                                       resolved=resolved))
    return report


class TestPassDeclarations:
    def test_every_pass_declares_reads(self):
        assert {spec.name for spec in SIM_PASSES} \
            == _DESIGN_ONLY | _OPTION_DEPENDENT
        for spec in SIM_PASSES:
            assert spec.reads, spec.name
            assert "design" in spec.reads, spec.name

    def test_design_only_classification(self):
        for spec in SIM_PASSES:
            assert spec.design_only == (spec.name in _DESIGN_ONLY), \
                spec.name

    def test_option_passes_name_their_option_fields(self):
        fields = set(SimOptions().to_dict())
        for spec in SIM_PASSES:
            if spec.design_only:
                continue
            option_reads = {read.split(".", 1)[1] for read in spec.reads
                            if read.startswith("options.")}
            assert option_reads, spec.name
            assert option_reads <= fields, spec.name


class TestPassMemo:
    def test_memoizes_and_counts_once(self):
        memo, counters = PassMemo(), PassCounters()
        calls = []
        compute = lambda: calls.append(1) or "value"  # noqa: E731
        assert memo.get_or_run("timeline", compute, counters) == "value"
        assert memo.get_or_run("timeline", compute, counters) == "value"
        assert len(calls) == 1
        assert counters.snapshot() == {"timeline": 1}
        assert memo.known_passes() == ("timeline",)

    def test_failures_are_not_cached(self):
        memo = PassMemo()
        calls = []

        def explode():
            calls.append(1)
            raise ValueError("boom")

        for _ in range(2):
            with pytest.raises(ValueError):
                memo.get_or_run("timeline", explode, None)
        assert len(calls) == 2
        assert memo.known_passes() == ()


class _Sweeps:
    """Shared sweep fixtures: (options list, design builder)."""

    FRAME_RATES = [15.0, 30.0, 60.0, 120.0]
    SLOTS = [1, 2, 3]


class TestMonolithicEquivalence(_Sweeps):
    """Acceptance: bit-identical EnergyReports vs the pre-split body."""

    def _assert_equivalent(self, design, options):
        monolithic = _simulate_graph_monolithic(
            design.graph, design.system, design.mapping,
            frame_rate=options.frame_rate,
            exposure_slots=options.exposure_slots,
            cycle_accurate=options.cycle_accurate)
        session = Simulator(cache=False)
        split = session.run(design, options).unwrap()
        assert split.to_dict() == monolithic.to_dict()

    @pytest.mark.parametrize("builder", [
        build_fig5_design,
        lambda: build_rhythmic(UseCaseConfig("2D-In", 65)),
        lambda: build_edgaze(UseCaseConfig("3D-In", 65)),
    ], ids=["fig5", "rhythmic", "edgaze"])
    def test_frame_rate_sweep_bit_identical(self, builder):
        design = builder()
        session = Simulator(cache=False)
        for rate in self.FRAME_RATES:
            options = SimOptions(frame_rate=rate)
            monolithic = _simulate_graph_monolithic(
                design.graph, design.system, design.mapping,
                frame_rate=rate)
            assert session.run(design, options).unwrap().to_dict() \
                == monolithic.to_dict()

    def test_exposure_slot_sweep_bit_identical(self):
        design = build_fig5_design()
        session = Simulator(cache=False)
        for slots in self.SLOTS:
            options = SimOptions(exposure_slots=slots)
            monolithic = _simulate_graph_monolithic(
                design.graph, design.system, design.mapping,
                frame_rate=30.0, exposure_slots=slots)
            assert session.run(design, options).unwrap().to_dict() \
                == monolithic.to_dict()

    def test_cycle_accurate_bit_identical(self):
        self._assert_equivalent(build_fig5_design(),
                                SimOptions(cycle_accurate=True))

    def test_legacy_simulate_wrapper_bit_identical(self):
        from repro import simulate

        design = build_fig5_design()
        monolithic = _simulate_graph_monolithic(
            design.graph, design.system, design.mapping, frame_rate=45.0)
        wrapped = simulate(design.graph, design.system, design.mapping,
                           frame_rate=45.0)
        assert wrapped.to_dict() == monolithic.to_dict()


class TestIncrementalReruns(_Sweeps):
    """Acceptance: option sweeps re-run only option-dependent passes."""

    def test_frame_rate_sweep_runs_design_passes_once(self):
        design = build_fig5_design()
        session = Simulator(cache=False)
        for rate in self.FRAME_RATES:
            assert session.run(design, SimOptions(frame_rate=rate)).ok
        runs = session.pass_info()
        n = len(self.FRAME_RATES)
        assert runs["timeline"] == 1
        assert runs["analog_usage"] == 1
        assert runs["comm_energy"] == 1
        assert "cycle_sim" not in runs
        assert runs["timing"] == n
        assert runs["analog_energy"] == n
        assert runs["digital_energy"] == n

    def test_exposure_slot_sweep_runs_design_passes_once(self):
        design = build_fig5_design()
        session = Simulator(cache=False)
        for slots in self.SLOTS:
            assert session.run(design, SimOptions(exposure_slots=slots)).ok
        runs = session.pass_info()
        assert runs["timeline"] == 1
        assert runs["timing"] == len(self.SLOTS)

    def test_cycle_accurate_latency_memoized_across_rates(self):
        design = build_fig5_design()
        session = Simulator(cache=False)
        for rate in (30.0, 60.0):
            result = session.run(design, SimOptions(frame_rate=rate,
                                                    cycle_accurate=True))
            assert result.ok
        assert session.pass_info()["cycle_sim"] == 1

    def test_independently_built_twins_share_one_memo(self):
        """Memoization keys on content hash, not object identity."""
        session = Simulator(cache=False)
        assert session.run(build_fig5_design()).ok
        assert session.run(build_fig5_design(),
                           SimOptions(frame_rate=60.0)).ok
        assert session.pass_info()["timeline"] == 1

    def test_distinct_designs_do_not_share(self):
        session = Simulator(cache=False)
        assert session.run(build_rhythmic(UseCaseConfig("2D-In", 65))).ok
        assert session.run(build_rhythmic(UseCaseConfig("2D-Off", 65))).ok
        assert session.pass_info()["timeline"] == 2

    def test_run_many_sweep_is_incremental_too(self):
        design = build_fig5_design()
        session = Simulator(cache=False)
        items = [(design, SimOptions(frame_rate=rate))
                 for rate in self.FRAME_RATES]
        assert all(result.ok for result in session.run_many(items))
        runs = session.pass_info()
        assert runs["timeline"] == 1
        assert runs["timing"] == len(self.FRAME_RATES)

    def test_unserializable_design_uses_its_object_memo(self):
        from repro.sw.stage import ProcessStage
        from repro.usecases.fig5 import (FIG5_MAPPING, build_fig5_stages,
                                         build_fig5_system)

        class Custom(ProcessStage):
            pass

        stages = build_fig5_stages()
        custom = Custom("EdgeDetection", input_size=(16, 16, 1),
                        kernel=(3, 3, 1), stride=(1, 1, 1), padding="same")
        custom.set_input_stage(stages[1])
        design = Design(stages[:2] + [custom], build_fig5_system(),
                        dict(FIG5_MAPPING))
        session = Simulator()
        for rate in (30.0, 60.0):
            assert session.run(design, SimOptions(frame_rate=rate)).ok
        assert session.pass_info()["timeline"] == 1
        assert design.pass_memo.known_passes()  # memo lives on the object

    def test_standalone_engine_calls_stay_independent(self):
        """Without a memo, every call recomputes — the legacy contract."""
        design = build_fig5_design()
        counters = PassCounters()
        for rate in (30.0, 60.0):
            _simulate_graph(design.graph, design.system, design.mapping,
                            frame_rate=rate, counters=counters)
        assert counters.snapshot()["timeline"] == 2

    def test_shared_memo_threads_compute_each_pass_once(self):
        """Concurrent same-design jobs serialize per memo, not per run."""
        design = build_fig5_design()
        session = Simulator(cache=False, max_workers=4)
        items = [(design, SimOptions(frame_rate=float(rate)))
                 for rate in range(20, 40)]
        assert all(result.ok for result in session.run_many(items))
        runs = session.pass_info()
        assert runs["timeline"] == 1
        assert runs["timing"] == len(items)


class TestColumnEngine:
    """One engine call over columns of operating points equals the
    monolithic body called once per row."""

    def _assert_rows_match(self, design, frame_rates, slots):
        counters = PassCounters()
        report, failures = _simulate_graph(
            design.graph, design.system, design.mapping,
            frame_rate=frame_rates, exposure_slots=slots, counters=counters)
        fitting = []
        for row, (rate, slot) in enumerate(zip(frame_rates, slots)):
            try:
                expected = _simulate_graph_monolithic(
                    design.graph, design.system, design.mapping,
                    frame_rate=rate, exposure_slots=slot)
            except TimingError as error:
                assert type(failures[row]) is TimingError
                assert str(failures[row]) == str(error)
                continue
            assert row not in failures
            fitting.append((row, expected))
        assert len(failures) == len(frame_rates) - len(fitting)
        if not fitting:
            assert report is None
        else:
            block = ResultBlock(
                design_name=design.name, design_hash=None,
                options=OptionColumns(SimOptions(), {
                    "frame_rate": [frame_rates[row] for row, _ in fitting],
                    "exposure_slots": [slots[row] for row, _ in fitting]},
                    len(fitting)),
                report=report)
            for position, (_, expected) in enumerate(fitting):
                assert block.result(position).report.to_dict() \
                    == expected.to_dict()
        # A column call is one run of each option-dependent pass.
        runs = counters.snapshot()
        for name in _OPTION_DEPENDENT:
            assert runs.get(name) == (1 if fitting or name == "timing"
                                      else None), name

    @pytest.mark.parametrize("builder", [
        build_fig5_design,
        lambda: build_rhythmic(UseCaseConfig("2D-In", 65)),
        lambda: build_edgaze(UseCaseConfig("3D-In", 65)),
    ], ids=["fig5", "rhythmic", "edgaze"])
    def test_rows_equal_the_monolithic_engine(self, builder):
        # 30 is an int; 1e7 and 3e7 FPS leave no analog budget.
        self._assert_rows_match(builder(),
                                [15.0, 30, 1e7, 60.0, 120.0, 3e7],
                                [1, 2, 1, 3, 1, 2])

    def test_a_group_where_every_row_fails(self):
        self._assert_rows_match(build_fig5_design(), [1e7, 2e7, 5e7],
                                [1, 1, 2])

    def test_a_number_is_shared_by_every_row(self):
        design = build_fig5_design()
        report, failures = _simulate_graph(
            design.graph, design.system, design.mapping,
            frame_rate=[30.0, 60.0], exposure_slots=2)
        assert not failures
        for row, rate in enumerate((30.0, 60.0)):
            expected = _simulate_graph_monolithic(
                design.graph, design.system, design.mapping,
                frame_rate=rate, exposure_slots=2)
            assert report.analog_stage_delay[row] \
                == expected.analog_stage_delay

    def test_a_failing_pass_fails_the_rows_that_fit(self, monkeypatch):
        """Rows over budget keep their TimingError and the rest get the
        failing pass's error, as one call per row reports them."""
        import repro.sim.simulator as engine
        from repro.exceptions import SimulationError

        def broken(*args, **kwargs):
            raise SimulationError("no link")

        monkeypatch.setattr(engine, "communication_energy", broken)
        design = build_fig5_design()
        rates = [30.0, 1e7, 60.0]
        report, failures = _simulate_graph(
            design.graph, design.system, design.mapping, frame_rate=rates,
            exposure_slots=[1, 1, 1])
        assert report is None
        for row, rate in enumerate(rates):
            with pytest.raises((SimulationError, TimingError)) as raised:
                _simulate_graph(design.graph, design.system, design.mapping,
                                frame_rate=rate)
            assert type(failures[row]) is raised.type
            assert str(failures[row]) == str(raised.value)


class TestVectorPathPasses(_Sweeps):
    def test_vector_explore_shares_the_session_pass_memo(self):
        design = build_fig5_design()
        with Simulator() as session:
            result = explore(choice("options.frame_rate", self.FRAME_RATES),
                             lambda: design, simulator=session,
                             engine="vector")
            assert result.engines == {"vectorized": len(self.FRAME_RATES),
                                      "fallback": 0}
            # One column call: each pass ran once, for every rate.
            assert session.pass_info() == {
                name: 1 for name in _DESIGN_ONLY | _OPTION_DEPENDENT
                if name not in ("resolve", "checks", "cycle_sim")}
            assert session.run(design, SimOptions(frame_rate=45.0)).ok
            runs = session.pass_info()
        for name in ("timeline", "analog_usage", "comm_energy"):
            assert runs[name] == 1, name
        for name in _OPTION_DEPENDENT:
            assert runs[name] == 2, name
