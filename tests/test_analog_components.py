"""Tests for A-Components (Eq. 4, Eq. 11, Eq. 13)."""

import pytest

from repro import units
from repro.exceptions import ConfigurationError
from repro.hw.analog.cells import DynamicCell, OpAmp, StaticCell
from repro.hw.analog.components import (
    ActiveAnalogMemory,
    ActivePixelSensor,
    AnalogAbs,
    AnalogAdder,
    AnalogComparator,
    AnalogComponent,
    AnalogLog,
    AnalogMAC,
    AnalogMax,
    AnalogScaling,
    CellUsage,
    ColumnADC,
    CurrentDomainMAC,
    DigitalPixelSensor,
    PassiveAnalogMemory,
    PWMPixel,
    SampleAndHold,
    SwitchedCapSubtractor,
)
from repro.hw.analog.domain import SignalDomain


class TestCellUsage:
    def test_access_count_is_spatial_times_temporal(self):
        """Eq. 13."""
        usage = CellUsage(DynamicCell("c", [(1e-15, 1.0)]),
                          spatial=4, temporal=2)
        assert usage.access_count == 8

    def test_rejects_zero_counts(self):
        cell = DynamicCell("c", [(1e-15, 1.0)])
        with pytest.raises(ConfigurationError):
            CellUsage(cell, spatial=0)
        with pytest.raises(ConfigurationError):
            CellUsage(cell, temporal=0)

    def test_rejects_negative_static_time(self):
        cell = DynamicCell("c", [(1e-15, 1.0)])
        with pytest.raises(ConfigurationError):
            CellUsage(cell, static_time=-1.0)


class TestAnalogComponentEnergy:
    def test_weighted_sum_of_cells(self):
        """Eq. 4: component energy = sum(cell energy * cell accesses)."""
        cell = DynamicCell("cap", [(10 * units.fF, 1.0)])
        single = AnalogComponent("one", SignalDomain.VOLTAGE,
                                 SignalDomain.VOLTAGE, [CellUsage(cell)])
        quad = AnalogComponent("four", SignalDomain.VOLTAGE,
                               SignalDomain.VOLTAGE,
                               [CellUsage(cell, spatial=4)])
        delay = 1e-6
        assert quad.energy_per_access(delay) == pytest.approx(
            4 * single.energy_per_access(delay))

    def test_delay_split_across_critical_path(self):
        """Eq. 11: with K critical cells each gets delay/K; earlier cells
        stay biased until the end of the component access."""
        # Two identical gm/Id amps in sequence: the first is biased for the
        # whole component delay, the second only for its own slot.
        amp = OpAmp(load_capacitance=100 * units.fF, gain=1.0)
        comp = AnalogComponent("chain", SignalDomain.VOLTAGE,
                               SignalDomain.VOLTAGE,
                               [CellUsage(amp), CellUsage(amp)])
        delay = 1e-6
        slot = delay / 2
        first = amp.energy(slot, static_time=delay)
        second = amp.energy(slot, static_time=slot)
        assert comp.energy_per_access(delay) == pytest.approx(first + second)

    def test_static_time_override_used(self):
        """Analog frame buffers hold their bias for the frame, not a slot."""
        amp = OpAmp(load_capacitance=100 * units.fF, gain=1.0)
        hold = 33e-3
        comp = AnalogComponent("mem", SignalDomain.VOLTAGE,
                               SignalDomain.VOLTAGE,
                               [CellUsage(amp, static_time=hold)])
        delay = 1e-6
        assert comp.energy_per_access(delay) == pytest.approx(
            amp.energy(delay, static_time=hold))

    def test_rejects_non_positive_delay(self):
        cell = DynamicCell("c", [(1e-15, 1.0)])
        comp = AnalogComponent("x", SignalDomain.VOLTAGE,
                               SignalDomain.VOLTAGE, [CellUsage(cell)])
        with pytest.raises(ConfigurationError):
            comp.energy_per_access(0.0)

    def test_rejects_empty_cells(self):
        with pytest.raises(ConfigurationError):
            AnalogComponent("x", SignalDomain.VOLTAGE, SignalDomain.VOLTAGE,
                            [])

    def test_describe_lists_cells(self):
        comp = ActivePixelSensor()
        text = comp.describe()
        assert "PD" in text and "SF" in text


class TestActivePixelSensor:
    def test_4t_has_floating_diffusion(self):
        aps = ActivePixelSensor(num_transistors=4)
        cell_names = [u.cell.name for u in aps.cell_usages]
        assert "FD" in cell_names

    def test_3t_has_no_floating_diffusion(self):
        aps = ActivePixelSensor(num_transistors=3)
        cell_names = [u.cell.name for u in aps.cell_usages]
        assert "FD" not in cell_names

    def test_only_3t_and_4t_supported(self):
        with pytest.raises(ConfigurationError):
            ActivePixelSensor(num_transistors=5)

    def test_shared_pixels_multiply_pd_energy(self):
        single = ActivePixelSensor(num_shared_pixels=1)
        binned = ActivePixelSensor(num_shared_pixels=4)
        delay = 1e-5
        assert binned.energy_per_access(delay) > single.energy_per_access(
            delay)

    def test_binning_input_shape_square(self):
        binned = ActivePixelSensor(num_shared_pixels=4)
        assert binned.num_input == (2, 2)
        assert binned.input_volume == 4

    def test_cds_doubles_readout(self):
        plain = ActivePixelSensor(correlated_double_sampling=False)
        cds = ActivePixelSensor(correlated_double_sampling=True)
        sf_plain = [u for u in plain.cell_usages if u.cell.name == "SF"][0]
        sf_cds = [u for u in cds.cell_usages if u.cell.name == "SF"][0]
        assert sf_cds.temporal == 2 * sf_plain.temporal

    def test_domains(self):
        aps = ActivePixelSensor()
        assert aps.input_domain is SignalDomain.OPTICAL
        assert aps.output_domain is SignalDomain.VOLTAGE


class TestOtherComponents:
    def test_dps_outputs_digital(self):
        assert DigitalPixelSensor().output_domain is SignalDomain.DIGITAL

    def test_pwm_outputs_time_domain(self):
        assert PWMPixel().output_domain is SignalDomain.TIME

    def test_column_adc_crosses_to_digital(self):
        adc = ColumnADC(bits=10)
        assert adc.input_domain is SignalDomain.VOLTAGE
        assert adc.output_domain is SignalDomain.DIGITAL

    def test_adc_explicit_energy_respected(self):
        adc = ColumnADC(bits=10, energy_per_conversion=7 * units.pJ)
        assert adc.energy_per_access(1e-6) == pytest.approx(7 * units.pJ)

    def test_analog_mac_scales_with_kernel(self):
        small = AnalogMAC(kernel_volume=2, include_opamp=False)
        big = AnalogMAC(kernel_volume=8, include_opamp=False)
        assert big.energy_per_access(1e-6) == pytest.approx(
            4 * small.energy_per_access(1e-6))

    def test_analog_mac_opamp_adds_energy(self):
        passive = AnalogMAC(kernel_volume=9, include_opamp=False)
        active = AnalogMAC(kernel_volume=9, include_opamp=True)
        assert active.energy_per_access(1e-6) > passive.energy_per_access(
            1e-6)

    def test_current_mac_domains(self):
        mac = CurrentDomainMAC(kernel_volume=9)
        assert mac.input_domain is SignalDomain.CURRENT
        assert mac.output_domain is SignalDomain.CURRENT

    def test_adder_consumes_two_inputs(self):
        assert AnalogAdder().input_volume == 2

    def test_max_rejects_single_input(self):
        with pytest.raises(ConfigurationError):
            AnalogMax(num_inputs=1)

    def test_scaling_log_abs_comparator_energies_positive(self):
        for comp in (AnalogScaling(), AnalogLog(), AnalogAbs(),
                     AnalogComparator()):
            assert comp.energy_per_access(1e-6) > 0

    def test_passive_memory_sized_by_resolution(self):
        low = PassiveAnalogMemory(bits=6)
        high = PassiveAnalogMemory(bits=10)
        assert high.energy_per_access(1e-6) > low.energy_per_access(1e-6)

    def test_active_memory_hold_time_dominates(self):
        short = ActiveAnalogMemory(bits=8, hold_time=1e-5)
        long = ActiveAnalogMemory(bits=8, hold_time=1e-2)
        assert long.energy_per_access(1e-6) > 10 * short.energy_per_access(
            1e-6)

    def test_sample_and_hold_has_buffer(self):
        names = [u.cell.name for u in SampleAndHold().cell_usages]
        assert "HoldBuffer" in names

    def test_subtractor_consumes_two_inputs(self):
        assert SwitchedCapSubtractor().input_volume == 2


#: The stock components the explore fast path meets most, plus one with
#: a cell off the critical path.
_COLUMN_COMPONENTS = {
    "aps-binned-cds": ActivePixelSensor(num_shared_pixels=4,
                                        correlated_double_sampling=True),
    "column-adc": ColumnADC(bits=10),
    "analog-mac": AnalogMAC(kernel_volume=9),
    "active-memory": ActiveAnalogMemory(hold_time=1 / 30),
    "off-critical-path": AnalogComponent(
        "Aux", SignalDomain.VOLTAGE, SignalDomain.VOLTAGE,
        [CellUsage(DynamicCell("C", [(5 * units.fF, 1.0)])),
         CellUsage(OpAmp(), spatial=2, on_critical_path=False)]),
}


class TestDelayColumns:
    """A column of delays gives, per element, the float call's energy."""

    @pytest.mark.parametrize("component", list(_COLUMN_COMPONENTS.values()),
                             ids=list(_COLUMN_COMPONENTS))
    def test_each_element_equals_the_float_call(self, component,
                                                delay_column):
        energies = component.energy_per_access(delay_column)
        assert energies.tolist() == [component.energy_per_access(d)
                                     for d in delay_column.tolist()]

    def test_a_non_positive_delay_is_rejected(self, delay_column):
        delay_column[17] = -1e-6
        with pytest.raises(ConfigurationError, match="positive"):
            ColumnADC(energy_per_conversion=1 * units.pJ).energy_per_access(
                delay_column)
