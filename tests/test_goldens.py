"""Golden-number regression guard.

The headline quantities the README reports for the paper's results
(PAPER.md: Fig. 7 validation, Fig. 9/11 use-case totals), pinned with
tolerances.  A model change that silently shifts a reproduced result
beyond its band fails here before it corrupts the documented record.
"""

import pytest

from repro import units
from repro.energy.report import Category
from repro.usecases import (
    UseCaseConfig,
    run_edgaze,
    run_edgaze_mixed,
    run_rhythmic,
)
from repro.usecases.fig5 import run_fig5
from repro.validation import run_validation


class TestFig5Goldens:
    def test_total_energy(self):
        report = run_fig5()
        assert report.total_energy == pytest.approx(30.9 * units.nJ,
                                                    rel=0.05)

    def test_digital_latency(self):
        report = run_fig5()
        assert report.digital_latency == pytest.approx(2.57 * units.us,
                                                       rel=0.02)


class TestValidationGoldens:
    @pytest.fixture(scope="class")
    def summary(self):
        return run_validation()

    def test_mape_band(self, summary):
        assert summary.mean_absolute_percentage_error \
            == pytest.approx(0.044, abs=0.02)

    def test_pearson_band(self, summary):
        assert summary.pearson_correlation > 0.9995

    def test_isscc17_estimate(self, summary):
        result = [r for r in summary.results
                  if r.chip.name == "ISSCC'17"][0]
        assert result.estimated_energy_per_pixel == pytest.approx(
            7949 * units.pJ, rel=0.05)

    def test_park_estimate(self, summary):
        result = [r for r in summary.results
                  if r.chip.name == "JSSC'21-II"][0]
        assert result.estimated_energy_per_pixel == pytest.approx(
            51 * units.pJ, rel=0.05)


class TestUseCaseGoldens:
    def test_rhythmic_totals(self):
        expected = {
            "2D-In (130nm)": 92.1,
            "2D-Off (130nm)": 113.0,
            "3D-In (130nm)": 67.9,
            "2D-In (65nm)": 78.2,
        }
        for label, total_uj in expected.items():
            placement, node = label.split(" (")
            config = UseCaseConfig(placement, int(node[:-3]))
            report = run_rhythmic(config)
            assert report.total_energy == pytest.approx(
                total_uj * units.uJ, rel=0.05), label

    def test_edgaze_totals(self):
        expected = {
            "2D-In (65nm)": 235.5,
            "2D-Off (65nm)": 79.1,
            "3D-In (65nm)": 73.0,
            "3D-In-STT (65nm)": 34.1,
            "2D-In (130nm)": 167.6,
        }
        for label, total_uj in expected.items():
            placement, node = label.split(" (")
            config = UseCaseConfig(placement, int(node[:-3]))
            report = run_edgaze(config)
            assert report.total_energy == pytest.approx(
                total_uj * units.uJ, rel=0.05), label

    def test_edgaze_memory_share(self):
        report = run_edgaze(UseCaseConfig("2D-In", 65))
        share = report.category_energy(Category.MEM_D) / report.total_energy
        assert share == pytest.approx(0.734, abs=0.05)

    def test_mixed_totals(self):
        assert run_edgaze_mixed(65).total_energy == pytest.approx(
            115.2 * units.uJ, rel=0.05)
        assert run_edgaze_mixed(130).total_energy == pytest.approx(
            137.4 * units.uJ, rel=0.05)
