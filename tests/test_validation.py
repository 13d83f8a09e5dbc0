"""Tests for the Fig. 7 validation suite (nine Table 2 chips)."""

import pytest

from repro import units
from repro.energy.report import Category
from repro.hw.analog.components import ColumnADC
from repro.hw.interface import Interface
from repro.sim.simulator import simulate
from repro.validation import (
    ALL_CHIPS,
    chip_by_name,
    run_chip,
    run_validation,
)


@pytest.fixture(scope="module")
def summary():
    return run_validation()


class TestChipRegistry:
    def test_nine_chips(self):
        assert len(ALL_CHIPS) == 9

    def test_table2_names(self):
        names = {chip.name for chip in ALL_CHIPS}
        assert names == {"ISSCC'17", "JSSC'19", "Sensors'20", "ISSCC'21",
                         "JSSC'21-I", "JSSC'21-II", "VLSI'21", "ISSCC'22",
                         "TCAS-I'22"}

    def test_lookup_by_name(self):
        assert chip_by_name("JSSC'21-II").process_node == "110 nm"

    def test_unknown_name(self):
        with pytest.raises(KeyError):
            chip_by_name("ISSCC'99")

    def test_process_node_diversity(self):
        """Table 2 spans 180 nm down to stacked 22 nm logic."""
        nodes = {chip.process_node for chip in ALL_CHIPS}
        assert len(nodes) >= 5

    def test_stacked_chips_present(self):
        stacked = [c for c in ALL_CHIPS if "/" in c.process_node]
        assert len(stacked) == 2  # ISSCC'21 and VLSI'21
        assert sum(1 for chip in ALL_CHIPS
                   if chip.build()[1].is_stacked) == 2


class TestHeadlineMetrics:
    def test_mape_within_paper_ballpark(self, summary):
        """Paper reports 7.5 % MAPE; we require the same regime."""
        assert summary.mean_absolute_percentage_error < 0.15

    def test_pearson_matches_paper(self, summary):
        assert summary.pearson_correlation > 0.999

    def test_energies_span_orders_of_magnitude(self, summary):
        assert summary.energy_span_orders > 3.0

    def test_every_chip_reasonably_estimated(self, summary):
        for result in summary.results:
            assert result.absolute_percentage_error < 0.40, result.describe()

    def test_table_rendering(self, summary):
        text = summary.to_table()
        assert "MAPE" in text and "Pearson" in text


class TestKnownChipFacts:
    def test_park_headline_51pj(self):
        """JSSC'21-II's title number is the ground truth anchor."""
        chip = chip_by_name("JSSC'21-II")
        assert chip.reported_energy_per_pixel == pytest.approx(
            51 * units.pJ)
        result = run_chip(chip)
        assert result.estimated_energy_per_pixel == pytest.approx(
            51 * units.pJ, rel=0.10)

    def test_bong_leakage_dominated(self, summary):
        """ISSCC'17 at 1 FPS: 160 KB 65 nm SRAM leakage dominates."""
        result = [r for r in summary.results
                  if r.chip.name == "ISSCC'17"][0]
        breakdown = result.report.by_category()
        assert breakdown[Category.MEM_D] > 0.5 * result.report.total_energy

    def test_analog_only_chips_have_no_digital_energy(self, summary):
        for name in ("JSSC'19", "Sensors'20", "JSSC'21-I", "JSSC'21-II",
                     "TCAS-I'22"):
            result = [r for r in summary.results
                      if r.chip.name == name][0]
            assert result.report.digital_energy == 0.0, name
        # Table 2 spans analog-only and digital-capable chips.
        compute_units = [len(chip.build()[1].compute_units)
                         for chip in ALL_CHIPS]
        assert 0 in compute_units
        assert max(compute_units) > 0

    def test_fom_survey_adc_differs_from_explicit(self):
        """Ablation of the Fig. 7g/7h mismatch: swapping JSSC'21-II's
        calibrated ADC energy for the FoM-survey ColumnADC changes the
        estimate materially but keeps its order of magnitude."""
        chip = chip_by_name("JSSC'21-II")
        explicit = chip.simulate()
        stages, system, mapping = chip.build()
        adc_array = system.find_unit("ADCArray")
        adc_array._entries = []
        adc_array.add_component(ColumnADC(bits=10), (1, 320))
        system.set_offchip_interface(Interface("pads", 0.0))
        fom_based = simulate(stages, system, mapping,
                             frame_rate=chip.frame_rate)
        ratio = (fom_based.energy_per_pixel(chip.num_pixels)
                 / explicit.energy_per_pixel(chip.num_pixels))
        assert 0.1 < ratio < 1.0

    def test_stacked_chips_pay_utsv(self, summary):
        for name in ("ISSCC'21", "VLSI'21"):
            result = [r for r in summary.results
                      if r.chip.name == name][0]
            assert result.report.category_energy(Category.UTSV) > 0, name

    def test_validation_excludes_offchip_transmission(self, summary):
        """Chip measurements do not include MIPI energy (Sec. 5 accounting)."""
        for result in summary.results:
            assert result.report.category_energy(Category.MIPI) == 0.0

    def test_senputing_is_cheapest(self, summary):
        cheapest = min(summary.results,
                       key=lambda r: r.estimated_energy_per_pixel)
        assert cheapest.chip.name == "TCAS-I'22"

    def test_bong_is_most_expensive(self, summary):
        priciest = max(summary.results,
                       key=lambda r: r.estimated_energy_per_pixel)
        assert priciest.chip.name == "ISSCC'17"

    def test_breakdown_per_pixel_sums_to_total(self, summary):
        for result in summary.results:
            total = sum(result.breakdown_per_pixel().values())
            assert total == pytest.approx(
                result.estimated_energy_per_pixel, rel=1e-9)


class TestComponentBreakdownErrors:
    def test_paper_quoted_component_errors_reproduced(self, summary):
        """Sec. 5's per-component mismatch figures: 0.4 % on the JSSC'19
        analog PE (detailed params published), 12.4 % on the JSSC'21-I
        pixel (no ramp-generator params), 33.3 % on the TCAS-I'22 pixel
        (no photodiode swing)."""
        by_name = {r.chip.name: r for r in summary.results}
        assert by_name["JSSC'19"].breakdown_errors()["COMP-A"] \
            == pytest.approx(0.004, abs=0.002)
        assert by_name["JSSC'21-I"].breakdown_errors()["SEN"] \
            == pytest.approx(0.124, abs=0.01)
        assert by_name["TCAS-I'22"].breakdown_errors()["SEN"] \
            == pytest.approx(0.333, abs=0.01)

    def test_chips_without_published_breakdowns_return_empty(self, summary):
        by_name = {r.chip.name: r for r in summary.results}
        assert by_name["ISSCC'21"].breakdown_errors() == {}

    def test_detailed_params_beat_educated_guesses(self, summary):
        """The paper's Sec. 5 conclusion: chips publishing circuit detail
        (JSSC'19) validate far better than educated-guess chips
        (TCAS-I'22)."""
        by_name = {r.chip.name: r for r in summary.results}
        detailed = by_name["JSSC'19"].breakdown_errors()["COMP-A"]
        guessed = by_name["TCAS-I'22"].breakdown_errors()["SEN"]
        assert detailed < 0.1 * guessed
