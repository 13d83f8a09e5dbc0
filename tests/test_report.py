"""Tests for the energy report."""

import numpy as np
import pytest

from repro import units
from repro.energy.report import Category, EnergyEntry, EnergyReport
from repro.exceptions import ConfigurationError


def _report():
    report = EnergyReport(system_name="S", frame_rate=30,
                          frame_time=1 / 30, digital_latency=1e-3,
                          analog_stage_delay=5e-3)
    report.add(EnergyEntry("PixelArray/APS", Category.SEN, "sensor",
                           2 * units.nJ, stage="Input"))
    report.add(EnergyEntry("ADCArray/ADC", Category.SEN, "sensor",
                           3 * units.nJ, stage="Input"))
    report.add(EnergyEntry("PE", Category.COMP_D, "compute",
                           4 * units.nJ, stage="Conv"))
    report.add(EnergyEntry("Buf", Category.MEM_D, "compute", 1 * units.nJ,
                           stage="Conv"))
    report.add(EnergyEntry("MIPI:out", Category.MIPI, "sensor",
                           10 * units.nJ))
    return report


class TestRollups:
    def test_total(self):
        assert _report().total_energy == pytest.approx(20 * units.nJ)

    def test_total_power(self):
        assert _report().total_power == pytest.approx(600 * units.nW)

    def test_by_category(self):
        rollup = _report().by_category()
        assert rollup[Category.SEN] == pytest.approx(5 * units.nJ)
        assert rollup[Category.COMP_D] == pytest.approx(4 * units.nJ)
        assert Category.UTSV not in rollup

    def test_by_layer(self):
        rollup = _report().by_layer()
        assert rollup["sensor"] == pytest.approx(15 * units.nJ)
        assert rollup["compute"] == pytest.approx(5 * units.nJ)

    def test_by_component(self):
        rollup = _report().by_component()
        assert rollup["PE"] == pytest.approx(4 * units.nJ)

    def test_by_stage_skips_untagged(self):
        rollup = _report().by_stage()
        assert rollup["Conv"] == pytest.approx(5 * units.nJ)
        assert "MIPI:out" not in rollup

    def test_category_energy_zero_for_absent(self):
        assert _report().category_energy(Category.UTSV) == 0.0

    def test_domain_aggregates(self):
        report = _report()
        assert report.analog_energy == pytest.approx(5 * units.nJ)
        assert report.digital_energy == pytest.approx(5 * units.nJ)
        assert report.communication_energy == pytest.approx(10 * units.nJ)

    def test_energy_per_pixel(self):
        assert _report().energy_per_pixel(1000) == pytest.approx(
            20 * units.pJ)

    def test_energy_per_pixel_rejects_bad_count(self):
        with pytest.raises(ConfigurationError):
            _report().energy_per_pixel(0)


class TestEntries:
    def test_negative_energy_rejected(self):
        with pytest.raises(ConfigurationError):
            EnergyEntry("X", Category.SEN, "sensor", -1.0)

    def test_negative_element_of_a_column_rejected(self):
        with pytest.raises(ConfigurationError, match="non-negative"):
            EnergyEntry("X", Category.SEN, "sensor",
                        np.array([1.0, -1.0, 2.0]))

    def test_column_report_rolls_up_per_point(self):
        rates = [15.0, 30.0, 60.0]
        energies = [[1.0, 2.0, 3.0], [0.5, 0.25, 0.125]]
        column = EnergyReport(system_name="S", frame_rate=np.array(rates),
                              frame_time=1 / np.array(rates),
                              digital_latency=1e-3,
                              analog_stage_delay=5e-3)
        column.add(EnergyEntry("A", Category.SEN, "sensor",
                               np.array(energies[0])))
        column.add(EnergyEntry("B", Category.MEM_D, "sensor",
                               np.array(energies[1])))
        column.add(EnergyEntry("C", Category.MEM_D, "sensor", 0.1))
        for point, rate in enumerate(rates):
            scalar = EnergyReport(system_name="S", frame_rate=rate,
                                  frame_time=1 / rate, digital_latency=1e-3,
                                  analog_stage_delay=5e-3)
            scalar.add(EnergyEntry("A", Category.SEN, "sensor",
                                   energies[0][point]))
            scalar.add(EnergyEntry("B", Category.MEM_D, "sensor",
                                   energies[1][point]))
            scalar.add(EnergyEntry("C", Category.MEM_D, "sensor", 0.1))
            assert column.total_power[point] == scalar.total_power
            assert column.digital_energy[point] == scalar.digital_energy

    def test_table_rendering(self):
        text = _report().to_table()
        assert "SEN" in text
        assert "MIPI" in text
        assert "%" in text
