"""End-to-end integration tests of simulate() on the Fig. 5 example."""

import pytest

from repro import Category, Mapping, simulate, units
from repro.exceptions import MappingError, TimingError

from repro.usecases.fig5 import (
    FIG5_MAPPING,
    build_fig5_stages,
    build_fig5_system,
)


class TestFig5EndToEnd:
    def test_report_totals_positive(self, fig5_stages, fig5_system,
                                    fig5_mapping):
        report = simulate(fig5_stages, fig5_system, fig5_mapping,
                          frame_rate=30)
        assert report.total_energy > 0
        assert report.frame_time == pytest.approx(1 / 30)

    def test_eq1_decomposition(self, fig5_stages, fig5_system, fig5_mapping):
        """E_frame = E_analog + E_digital + E_comm (Eq. 1)."""
        report = simulate(fig5_stages, fig5_system, fig5_mapping,
                          frame_rate=30)
        assert report.total_energy == pytest.approx(
            report.analog_energy + report.digital_energy
            + report.communication_energy)

    def test_expected_categories_present(self, fig5_stages, fig5_system,
                                         fig5_mapping):
        report = simulate(fig5_stages, fig5_system, fig5_mapping,
                          frame_rate=30)
        rollup = report.by_category()
        assert {Category.SEN, Category.COMP_D, Category.MEM_D,
                Category.MIPI} <= set(rollup)

    def test_mipi_bytes_match_edge_output(self, fig5_stages, fig5_system,
                                          fig5_mapping):
        """16x16 8-bit edge map -> 256 B over MIPI at 100 pJ/B."""
        report = simulate(fig5_stages, fig5_system, fig5_mapping,
                          frame_rate=30)
        assert report.category_energy(Category.MIPI) == pytest.approx(
            256 * 100 * units.pJ)

    def test_timing_consistency(self, fig5_stages, fig5_system,
                                fig5_mapping):
        """3 * T_A + T_D = T_FR (Fig. 6)."""
        report = simulate(fig5_stages, fig5_system, fig5_mapping,
                          frame_rate=30)
        assert 3 * report.analog_stage_delay + report.digital_latency \
            == pytest.approx(report.frame_time)
        assert abs(3 * report.analog_stage_delay + report.digital_latency
                   - report.frame_time) < 1e-12

    def test_more_exposure_slots_shrink_analog_delay(self):
        """Sec. 4.1's delay split: each extra analog slot squeezes T_A."""
        delays = [simulate(build_fig5_stages(), build_fig5_system(),
                           dict(FIG5_MAPPING), frame_rate=30,
                           exposure_slots=slots).analog_stage_delay
                  for slots in (0, 1, 2)]
        assert delays[0] > delays[1] > delays[2]

    def test_higher_fps_increases_analog_energy(self, fig5_stages,
                                                fig5_system, fig5_mapping):
        """Faster frames squeeze ADC conversions into less time, raising
        energy once the FoM corner is crossed — and never lowering it."""
        slow = simulate(fig5_stages, fig5_system, fig5_mapping,
                        frame_rate=30)
        fast = simulate(fig5_stages, fig5_system, fig5_mapping,
                        frame_rate=10000)
        assert fast.category_energy(Category.SEN) >= slow.category_energy(
            Category.SEN) * 0.99

    def test_cycle_accurate_mode(self, fig5_stages, fig5_system,
                                 fig5_mapping):
        analytical = simulate(fig5_stages, fig5_system, fig5_mapping,
                              frame_rate=30)
        exact = simulate(build_fig5_stages(), build_fig5_system(),
                         dict(FIG5_MAPPING), frame_rate=30,
                         cycle_accurate=True)
        assert exact.digital_latency == pytest.approx(
            analytical.digital_latency, rel=0.05)

    def test_impossible_fps_raises(self, fig5_stages, fig5_system,
                                   fig5_mapping):
        with pytest.raises(TimingError):
            simulate(fig5_stages, fig5_system, fig5_mapping,
                     frame_rate=1e7)

    def test_mapping_object_accepted(self, fig5_stages, fig5_system):
        report = simulate(fig5_stages, fig5_system, Mapping(FIG5_MAPPING),
                          frame_rate=30)
        assert report.total_energy > 0

    def test_incomplete_mapping_rejected(self, fig5_stages, fig5_system):
        with pytest.raises(MappingError):
            simulate(fig5_stages, fig5_system, {"Input": "PixelArray"},
                     frame_rate=30)

    def test_skip_checks_escape_hatch(self, fig5_stages, fig5_system,
                                      fig5_mapping):
        report = simulate(fig5_stages, fig5_system, fig5_mapping,
                          frame_rate=30, skip_checks=True)
        assert report.total_energy > 0

    def test_component_names_qualified(self, fig5_stages, fig5_system,
                                       fig5_mapping):
        report = simulate(fig5_stages, fig5_system, fig5_mapping,
                          frame_rate=30)
        names = set(report.by_component())
        assert "PixelArray/BinningPixel" in names
        assert "ADCArray/ADC" in names
