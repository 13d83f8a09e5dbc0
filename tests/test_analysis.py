"""Tests for the design-analysis tooling (bottlenecks, compare) and the
one-axis sweeps and Pareto fronts the exploration engine runs."""

import pytest

from repro import simulate
from repro.analysis import (
    compare_reports,
    dominant_category,
    identify_bottlenecks,
    savings_fraction,
)
from repro.api import SimOptions
from repro.energy.report import Category, EnergyReport
from repro.exceptions import ConfigurationError
from repro.explore import choice, dominates, explore
from repro.usecases import UseCaseConfig, run_edgaze
from repro.usecases.fig5 import (
    FIG5_MAPPING,
    build_fig5_design,
    build_fig5_stages,
    build_fig5_system,
)


def _fig5_report():
    return simulate(build_fig5_stages(), build_fig5_system(),
                    dict(FIG5_MAPPING), frame_rate=30)


def _sweep(axis, values, builder, **kwargs):
    """The points of a one-axis exploration run on the object path, so
    every feasible point carries its full report."""
    return explore(choice(axis, values), builder,
                   objectives=("energy_per_frame",), annotate=False,
                   engine="object", **kwargs).points


class TestBottlenecks:
    def test_fig5_bottleneck_is_mipi(self):
        """The tiny example is dominated by the off-chip link."""
        ranked = identify_bottlenecks(_fig5_report())
        assert ranked, "expected at least one bottleneck"
        assert ranked[0].category is Category.MIPI
        assert ranked[0].share > 0.5

    def test_edgaze_bottleneck_is_memory(self):
        """2D-In Ed-Gaze at 65 nm: the frame buffer leads (Finding 1)."""
        report = run_edgaze(UseCaseConfig("2D-In", 65))
        ranked = identify_bottlenecks(report)
        assert ranked[0].name == "FrameBuffer"
        assert ranked[0].category is Category.MEM_D

    def test_shares_ordered_and_bounded(self):
        ranked = identify_bottlenecks(_fig5_report(), top=10, min_share=0.0)
        shares = [b.share for b in ranked]
        assert shares == sorted(shares, reverse=True)
        assert sum(shares) <= 1.0 + 1e-9

    def test_min_share_filters(self):
        ranked = identify_bottlenecks(_fig5_report(), top=10, min_share=0.5)
        assert all(b.share >= 0.5 for b in ranked)

    def test_hints_present(self):
        for bottleneck in identify_bottlenecks(_fig5_report()):
            assert bottleneck.hint
            assert bottleneck.describe()

    def test_parameter_validation(self):
        report = _fig5_report()
        with pytest.raises(ConfigurationError):
            identify_bottlenecks(report, top=0)
        with pytest.raises(ConfigurationError):
            identify_bottlenecks(report, min_share=1.0)

    def test_dominant_category(self):
        assert dominant_category(_fig5_report()) is Category.MIPI

    def test_empty_report_no_dominant(self):
        empty = EnergyReport(system_name="E", frame_rate=30,
                             frame_time=1 / 30, digital_latency=0,
                             analog_stage_delay=1e-3)
        assert dominant_category(empty) is None
        assert identify_bottlenecks(empty) == []


class TestCompare:
    def test_3d_vs_2d_edgaze(self):
        """The Finding 2 comparison via the analysis API."""
        baseline = run_edgaze(UseCaseConfig("2D-In", 65))
        candidate = run_edgaze(UseCaseConfig("3D-In", 65))
        delta = compare_reports(baseline, candidate)
        assert delta.total_delta < 0
        assert delta.savings_fraction > 0.3
        assert delta.biggest_mover() is Category.MEM_D

    def test_stt_comparison_attributes_to_memory(self):
        baseline = run_edgaze(UseCaseConfig("3D-In", 65))
        candidate = run_edgaze(UseCaseConfig("3D-In-STT", 65))
        delta = compare_reports(baseline, candidate)
        assert delta.by_category[Category.MEM_D] < 0
        assert abs(delta.by_category[Category.MEM_D]) > 0.9 * abs(
            delta.total_delta)

    def test_savings_fraction_shorthand(self):
        baseline = run_edgaze(UseCaseConfig("3D-In", 65))
        candidate = run_edgaze(UseCaseConfig("3D-In-STT", 65))
        assert savings_fraction(baseline, candidate) == pytest.approx(
            compare_reports(baseline, candidate).savings_fraction)

    def test_describe_mentions_direction(self):
        baseline = run_edgaze(UseCaseConfig("2D-In", 65))
        candidate = run_edgaze(UseCaseConfig("3D-In", 65))
        text = compare_reports(baseline, candidate).describe()
        assert "saves" in text

    def test_empty_baseline_rejected(self):
        empty = EnergyReport(system_name="E", frame_rate=30,
                             frame_time=1 / 30, digital_latency=0,
                             analog_stage_delay=1e-3)
        with pytest.raises(ConfigurationError):
            compare_reports(empty, _fig5_report())


class TestSweeps:
    def test_frame_rate_sweep_shapes(self):
        points = _sweep("options.frame_rate", [15, 30, 60, 120],
                        build_fig5_design)
        assert len(points) == 4
        assert all(p.feasible for p in points)

    def test_sweep_marks_infeasible_points(self):
        """Absurd FPS targets fail with a TimingError, not an exception."""
        points = _sweep("options.frame_rate", [30, 1e7], build_fig5_design)
        assert points[0].feasible
        assert not points[1].feasible
        assert "re-design" in points[1].failure

    def test_node_sweep(self):
        from repro.usecases.edgaze import build_edgaze

        points = _sweep(
            "node", [130, 65],
            lambda node: build_edgaze(UseCaseConfig("2D-In", int(node))),
            options=SimOptions(frame_rate=30.0))
        assert all(p.feasible for p in points)
        # The 65 nm leakage anomaly shows up in the sweep too.
        assert points[1].report.total_energy > points[0].report.total_energy

    def test_generic_parameter_sweep(self):
        """A builder axis drives any builder argument, here the node."""
        from repro.usecases.edgaze import build_edgaze

        points = _sweep(
            "node", [130, 65],
            lambda node: build_edgaze(UseCaseConfig("2D-In", int(node))))
        assert [p.params["node"] for p in points] == [130, 65]
        assert all(p.feasible for p in points)

    def test_sweeps_accept_design_builders(self):
        """A Design builder and the use case's registered name agree."""
        by_callable = _sweep("options.frame_rate", [30, 60],
                             build_fig5_design)
        by_name = _sweep("options.frame_rate", [30, 60], "fig5")
        assert all(p.feasible for p in by_callable)
        assert [p.report.total_energy for p in by_name] \
            == [p.report.total_energy for p in by_callable]

    def test_sweep_shares_a_simulator_cache(self):
        """An explicit session dedups identical points across values."""
        from repro.api import Simulator

        simulator = Simulator()
        _sweep("value", [1, 2], lambda value: build_fig5_design(),
               simulator=simulator)
        assert simulator.cache_info().size == 1  # same design both times

    def test_builder_failure_marks_the_point_not_the_sweep(self):
        """A value the builder itself rejects stays an infeasible point."""
        def builder(value):
            if value == 2:
                raise ConfigurationError("value 2 is unbuildable")
            return build_fig5_design()

        points = _sweep("value", [1, 2, 3], builder)
        assert [p.params["value"] for p in points] == [1, 2, 3]
        assert points[0].feasible and points[2].feasible
        assert not points[1].feasible
        assert "unbuildable" in points[1].failure

    def test_empty_sweeps_rejected(self):
        with pytest.raises(ConfigurationError):
            _sweep("options.frame_rate", [], build_fig5_design)
        with pytest.raises(ConfigurationError):
            _sweep("node", [], build_fig5_design)


class TestPareto:
    GOALS = ("min", "min")

    @staticmethod
    def _result(placements=("2D-Off", "2D-In", "3D-In", "3D-In-STT")):
        return explore(choice("placement", list(placements)), "edgaze",
                       objectives=("energy_per_frame", "power_density"),
                       annotate=False)

    def test_edgaze_pareto_front(self):
        """2D-In at 65 nm is strictly dominated: more energy AND denser."""
        result = self._result()
        front_labels = {p.params["placement"] for p in result.frontier()}
        dominated_labels = {
            p.params["placement"]
            for p, rank in zip(result.points, result.dominance_ranks())
            if rank}
        assert "2D-In" in dominated_labels
        assert "3D-In-STT" in front_labels

    def test_front_sorted_and_nondominated(self):
        result = self._result()
        front = [p.objective_vector(result.objectives)
                 for p in result.frontier()]
        energies = [energy for energy, _ in front]
        assert energies == sorted(energies)
        for p in front:
            assert not any(dominates(q, p, self.GOALS) for q in front)

    def test_dominance_semantics(self):
        assert dominates((1.0, 1.0), (2.0, 2.0), self.GOALS)
        assert not dominates((2.0, 2.0), (1.0, 1.0), self.GOALS)
        assert not dominates((1.0, 1.0), (1.0, 1.0), self.GOALS)

    def test_empty_rejected(self):
        """No candidates to rank: the empty space is refused up front."""
        with pytest.raises(ConfigurationError):
            self._result(placements=())
