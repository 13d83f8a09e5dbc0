"""Tests for the Walden FoM survey used by non-linear A-Cells."""

import math

import numpy as np
import pytest

from repro import units
from repro.exceptions import ConfigurationError
from repro.hw.analog.adc_fom import (
    FOM_SURVEY,
    adc_energy_per_conversion,
    walden_fom,
)


class TestSurveyDataset:
    def test_survey_is_non_trivial(self):
        assert len(FOM_SURVEY) > 50

    def test_survey_spans_the_published_rate_range(self):
        rates = [p.sample_rate for p in FOM_SURVEY]
        assert min(rates) <= 10 * units.kHz
        assert max(rates) >= 1 * units.GHz

    def test_survey_foms_positive(self):
        assert all(p.fom > 0 for p in FOM_SURVEY)

    def test_survey_deterministic(self):
        """The dataset must be reproducible across imports/runs."""
        from repro.hw.analog.adc_fom import _build_survey
        assert _build_survey() == tuple(FOM_SURVEY)


class TestWaldenLookup:
    def test_flat_floor_below_corner(self):
        """Below ~100 MS/s the median FoM is rate-independent (tens of fJ)."""
        low = walden_fom(1 * units.MHz)
        mid = walden_fom(10 * units.MHz)
        assert low == pytest.approx(mid, rel=0.6)
        assert 1 * units.fJ < low < 200 * units.fJ

    def test_fom_degrades_above_corner(self):
        assert walden_fom(5 * units.GHz) > 3 * walden_fom(10 * units.MHz)

    def test_out_of_range_falls_back_to_envelope(self):
        very_slow = walden_fom(1.0)  # 1 S/s, far below the survey
        assert very_slow > 0

    def test_matches_the_brute_force_formula(self):
        """Every survey rate and half a decade either side of it (the
        window's edges) gives the median of the survey FoMs whose
        ``math.log10`` rate lies within the window, bit for bit."""
        from repro.hw.analog.adc_fom import _envelope

        def brute_force(rate, window=0.5):
            nearby = sorted(point.fom for point in FOM_SURVEY
                            if abs(math.log10(point.sample_rate)
                                   - math.log10(rate)) <= window)
            if not nearby:
                return _envelope(rate)
            middle = len(nearby) // 2
            if len(nearby) % 2:
                return nearby[middle]
            return 0.5 * (nearby[middle - 1] + nearby[middle])

        rates = [point.sample_rate * 10.0 ** shift
                 for point in FOM_SURVEY for shift in (-0.5, 0.0, 0.5)]
        assert [walden_fom(rate) for rate in rates] \
            == [brute_force(rate) for rate in rates]

    def test_rejects_non_positive_rate(self):
        with pytest.raises(ConfigurationError):
            walden_fom(0.0)


class TestEnergyPerConversion:
    def test_exponential_in_bits(self):
        e8 = adc_energy_per_conversion(10 * units.MHz, 8)
        e10 = adc_energy_per_conversion(10 * units.MHz, 10)
        assert e10 == pytest.approx(4 * e8)

    def test_10bit_adc_energy_plausible(self):
        """10-bit column ADCs run single-digit to tens of pJ/conversion."""
        energy = adc_energy_per_conversion(1 * units.MHz, 10)
        assert 1 * units.pJ < energy < 100 * units.pJ

    def test_comparator_is_cheap(self):
        """A comparator (1-bit ADC) costs ~2x the FoM floor."""
        energy = adc_energy_per_conversion(1 * units.MHz, 1)
        assert energy < 1 * units.pJ

    def test_rejects_zero_bits(self):
        with pytest.raises(ConfigurationError):
            adc_energy_per_conversion(1 * units.MHz, 0)


class TestRateColumns:
    """A column of rates takes the batched lookup, bit for bit."""

    @pytest.mark.parametrize("bits", [1, 10])
    def test_each_element_equals_the_float_call(self, bits, delay_column):
        rates = 1.0 / delay_column
        energies = adc_energy_per_conversion(rates, bits)
        assert energies.tolist() == [adc_energy_per_conversion(rate, bits)
                                     for rate in rates.tolist()]

    def test_survey_rates_and_window_edges_match(self):
        # Rates exactly on survey points and half a decade off them sit
        # on the lookup window's edges.
        rates = np.array([point.sample_rate * 10.0 ** shift
                          for point in FOM_SURVEY
                          for shift in (-0.5, 0.0, 0.5)])
        assert adc_energy_per_conversion(rates, 8).tolist() \
            == [adc_energy_per_conversion(rate, 8)
                for rate in rates.tolist()]

    def test_a_non_positive_rate_is_rejected(self, delay_column):
        rates = 1.0 / delay_column
        rates[17] = 0.0
        with pytest.raises(ConfigurationError, match="positive"):
            adc_energy_per_conversion(rates, 10)
