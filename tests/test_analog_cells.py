"""Tests for A-Cells: dynamic (Eq. 5-6), static (Eq. 7-10), non-linear (Eq. 12)."""

import math

import numpy as np
import pytest

from repro import units
from repro.exceptions import ConfigurationError
from repro.hw.analog.cells import (
    ADCCell,
    CapacitorArray,
    ComparatorCell,
    CurrentMirrorCell,
    DynamicCell,
    FloatingDiffusion,
    NonLinearCell,
    OpAmp,
    Photodiode,
    SourceFollower,
    StaticCell,
)


class TestDynamicCell:
    def test_energy_is_sum_cv2(self):
        """Eq. 5: E = sum(C_i * Vswing_i^2)."""
        cell = DynamicCell("caps", [(10 * units.fF, 1.0),
                                    (20 * units.fF, 0.5)])
        expected = 10e-15 * 1.0 ** 2 + 20e-15 * 0.25
        assert cell.energy(1e-6) == pytest.approx(expected)

    def test_energy_independent_of_timing(self):
        cell = DynamicCell("cap", [(10 * units.fF, 1.0)])
        assert cell.energy(1e-9) == cell.energy(1e-3)
        assert cell.energy(1e-6, static_time=1.0) == cell.energy(1e-6)

    def test_for_resolution_sizes_capacitor_from_kt_c(self):
        """Eq. 6: the cap must keep 3*sigma below half an LSB."""
        cell = DynamicCell.for_resolution("cap", voltage_swing=1.0, bits=8)
        sigma = math.sqrt(units.BOLTZMANN * 300 / cell.total_capacitance)
        lsb = 1.0 / 256
        assert 3 * sigma == pytest.approx(lsb / 2)

    def test_higher_resolution_costs_more_energy(self):
        low = DynamicCell.for_resolution("c", voltage_swing=1.0, bits=6)
        high = DynamicCell.for_resolution("c", voltage_swing=1.0, bits=10)
        assert high.energy(1e-6) > low.energy(1e-6)

    def test_rejects_empty_nodes(self):
        with pytest.raises(ConfigurationError):
            DynamicCell("bad", [])

    def test_rejects_non_positive_capacitance(self):
        with pytest.raises(ConfigurationError):
            DynamicCell("bad", [(0.0, 1.0)])


class TestStaticCellDirectDrive:
    def test_energy_reduces_to_cload_vswing_vdda(self):
        """Eq. 9: for direct drive the delay cancels out."""
        cell = StaticCell.direct_drive("sf", load_capacitance=1 * units.pF,
                                       voltage_swing=1.0, vdda=1.8)
        expected = 1e-12 * 1.0 * 1.8
        assert cell.energy(1e-6) == pytest.approx(expected)
        assert cell.energy(1e-3) == pytest.approx(expected)

    def test_bias_current_from_slewing(self):
        """Eq. 8: Ibias = Cload * Vswing / t."""
        cell = StaticCell.direct_drive("sf", load_capacitance=1 * units.pF,
                                       voltage_swing=1.0)
        assert cell.bias_current(1e-6) == pytest.approx(1e-12 / 1e-6)

    def test_faster_needs_more_current(self):
        cell = StaticCell.direct_drive("sf", load_capacitance=1 * units.pF,
                                       voltage_swing=1.0)
        assert cell.bias_current(1e-9) > cell.bias_current(1e-6)


class TestStaticCellGmId:
    def test_bias_current_formula(self):
        """Eq. 10: Ibias = 2*pi*Cload*GBW/(gm/Id)."""
        cell = StaticCell.gm_id_biased("amp", load_capacitance=100 * units.fF,
                                       gain=2.0, gm_id=15.0)
        delay = 1e-6
        gbw = 2.0 / delay
        expected = 2 * math.pi * 100e-15 * gbw / 15.0
        assert cell.bias_current(delay) == pytest.approx(expected)

    def test_energy_grows_with_hold_time(self):
        """An amp held biased beyond its settling slot burns proportionally."""
        cell = StaticCell.gm_id_biased("amp", load_capacitance=100 * units.fF,
                                       gain=1.0)
        settle = 1e-6
        short = cell.energy(settle, static_time=settle)
        long = cell.energy(settle, static_time=100 * settle)
        assert long == pytest.approx(100 * short)

    def test_energy_delay_invariant_when_static_follows_delay(self):
        """Slower settling => less current but longer bias: E is constant."""
        cell = StaticCell.gm_id_biased("amp", load_capacitance=100 * units.fF,
                                       gain=2.0)
        assert cell.energy(1e-6) == pytest.approx(cell.energy(1e-3))

    def test_higher_gain_needs_more_energy(self):
        low = StaticCell.gm_id_biased("a", 100 * units.fF, gain=1.0)
        high = StaticCell.gm_id_biased("a", 100 * units.fF, gain=4.0)
        assert high.energy(1e-6) > low.energy(1e-6)

    def test_gm_id_outside_plausible_range_rejected(self):
        with pytest.raises(ConfigurationError, match="5..30"):
            StaticCell.gm_id_biased("a", 100 * units.fF, gain=1.0, gm_id=50.0)

    def test_rejects_zero_delay(self):
        cell = StaticCell.gm_id_biased("a", 100 * units.fF, gain=1.0)
        with pytest.raises(ConfigurationError):
            cell.energy(0.0)


class TestNonLinearCell:
    def test_explicit_energy_override_wins(self):
        cell = NonLinearCell("adc", bits=10,
                             energy_per_conversion=5 * units.pJ)
        assert cell.energy(1e-9) == pytest.approx(5 * units.pJ)

    def test_fom_lookup_used_when_no_override(self):
        cell = NonLinearCell("adc", bits=10)
        energy = cell.energy(1e-6)  # 1 MS/s
        assert 0.1 * units.pJ < energy < 100 * units.pJ

    def test_faster_conversion_eventually_costs_more(self):
        cell = NonLinearCell("adc", bits=10)
        slow = cell.energy(1e-6)      # 1 MS/s
        fast = cell.energy(0.2e-9)    # 5 GS/s
        assert fast > slow

    def test_rejects_zero_bits(self):
        with pytest.raises(ConfigurationError):
            NonLinearCell("adc", bits=0)


class TestConcreteCells:
    def test_photodiode_is_dynamic(self):
        pd = Photodiode(capacitance=10 * units.fF, voltage_swing=1.0)
        assert pd.energy(1e-6) == pytest.approx(10e-15)

    def test_floating_diffusion_smaller_than_pd(self):
        assert FloatingDiffusion().energy(1e-6) < Photodiode().energy(1e-6)

    def test_source_follower_energy(self):
        sf = SourceFollower(load_capacitance=1 * units.pF,
                            voltage_swing=1.0, vdda=1.8)
        assert sf.energy(1e-6) == pytest.approx(1e-12 * 1.8)

    def test_opamp_is_gm_id_biased(self):
        amp = OpAmp(load_capacitance=100 * units.fF, gain=2.0)
        assert amp.mode == "gm_id"

    def test_capacitor_array_scales_with_taps(self):
        small = CapacitorArray(num_capacitors=2)
        big = CapacitorArray(num_capacitors=8)
        assert big.energy(1e-6) == pytest.approx(4 * small.energy(1e-6))

    def test_capacitor_array_rejects_zero_taps(self):
        with pytest.raises(ConfigurationError):
            CapacitorArray(num_capacitors=0)

    def test_comparator_is_one_bit(self):
        assert ComparatorCell().bits == 1

    def test_adc_cell_default_ten_bits(self):
        assert ADCCell().bits == 10

    def test_current_mirror_is_static(self):
        mirror = CurrentMirrorCell()
        assert mirror.energy(1e-6) > 0


#: The stock cells, each with the timing branch it takes.
_COLUMN_CELLS = {
    "photodiode": Photodiode(),
    "source-follower": SourceFollower(),
    "opamp": OpAmp(),
    "adc-fom": ADCCell(),
    "adc-fixed": ADCCell(energy_per_conversion=2 * units.pJ),
    "comparator": ComparatorCell(),
}


class TestDelayColumns:
    """A column of delays gives, per element, the float call's energy."""

    @pytest.mark.parametrize("cell", list(_COLUMN_CELLS.values()),
                             ids=list(_COLUMN_CELLS))
    def test_each_element_equals_the_float_call(self, cell, delay_column):
        delays = delay_column.tolist()
        energies = np.broadcast_to(cell.energy(delay_column),
                                   delay_column.shape)
        assert energies.tolist() == [cell.energy(d) for d in delays]
        held = np.broadcast_to(cell.energy(delay_column, 3 * delay_column),
                               delay_column.shape)
        assert held.tolist() == [cell.energy(d, 3 * d) for d in delays]

    @pytest.mark.parametrize("cell", [SourceFollower(), OpAmp(), ADCCell()],
                             ids=["source-follower", "opamp", "adc-fom"])
    def test_a_non_positive_delay_is_rejected(self, cell, delay_column):
        delay_column[17] = 0.0
        with pytest.raises(ConfigurationError, match="positive"):
            cell.energy(delay_column)

    def test_a_negative_static_time_is_rejected(self, delay_column):
        static = delay_column.copy()
        static[17] = -1e-6
        with pytest.raises(ConfigurationError, match="non-negative"):
            OpAmp().energy(delay_column, static)
