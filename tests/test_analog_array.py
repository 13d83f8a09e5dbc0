"""Tests for Analog Functional Arrays (Eq. 2-3)."""

import pytest

from repro import units
from repro.exceptions import ConfigurationError
from repro.hw.analog.array import AnalogArray
from repro.hw.analog.components import (
    ActivePixelSensor,
    AnalogMAC,
    ColumnADC,
    PassiveAnalogMemory,
)
from repro.hw.analog.domain import SignalDomain
from repro.hw.digital.memory import FIFO


def _pixel_array(rows=16, cols=16, shared=1):
    array = AnalogArray("PixelArray")
    array.add_component(ActivePixelSensor(num_shared_pixels=shared),
                        (rows, cols))
    return array


class TestConstruction:
    def test_component_count(self):
        assert _pixel_array(16, 16).num_components == 256

    def test_duplicate_component_rejected(self):
        array = AnalogArray("A")
        array.add_component(ColumnADC("ADC"), (1, 4))
        with pytest.raises(ConfigurationError, match="duplicate"):
            array.add_component(ColumnADC("ADC"), (1, 2))

    def test_zero_count_rejected(self):
        array = AnalogArray("A")
        with pytest.raises(ConfigurationError):
            array.add_component(ColumnADC(), (0, 4))

    def test_self_wiring_rejected(self):
        array = _pixel_array()
        with pytest.raises(ConfigurationError):
            array.set_output(array)

    def test_empty_array_has_no_domains(self):
        array = AnalogArray("empty")
        with pytest.raises(ConfigurationError):
            _ = array.input_domain


class TestDomains:
    def test_domains_follow_component_chain(self):
        array = _pixel_array()
        assert array.input_domain is SignalDomain.OPTICAL
        assert array.output_domain is SignalDomain.VOLTAGE

    def test_category_sensing_for_pixels(self):
        assert _pixel_array().category == "sensing"

    def test_category_sensing_for_adcs(self):
        array = AnalogArray("ADCs")
        array.add_component(ColumnADC(), (1, 16))
        assert array.category == "sensing"

    def test_category_compute_for_macs(self):
        array = AnalogArray("PEs")
        array.add_component(AnalogMAC(kernel_volume=9), (1, 16))
        assert array.category == "compute"

    def test_category_explicit_override(self):
        array = AnalogArray("Buf", category="memory")
        array.add_component(PassiveAnalogMemory(), (100, 100))
        assert array.category == "memory"

    def test_invalid_category_rejected(self):
        with pytest.raises(ConfigurationError):
            AnalogArray("Bad", category="magic")


class TestAccessCounting:
    def test_eq3_even_division(self):
        """Access count = ops / component count (Eq. 3)."""
        array = _pixel_array(16, 16)
        counts = array.component_access_counts(1024)
        assert counts["APS"] == pytest.approx(4.0)

    def test_zero_ops_allowed(self):
        counts = _pixel_array().component_access_counts(0)
        assert counts["APS"] == 0

    def test_negative_ops_rejected(self):
        with pytest.raises(ConfigurationError):
            _pixel_array().component_access_counts(-1)


class TestEnergy:
    def test_energy_linear_in_ops_for_dynamic_parts(self):
        """ADC FoM at fixed per-access delay: twice the conversions at the
        same rate cost exactly twice."""
        array = AnalogArray("ADCs")
        array.add_component(ColumnADC(energy_per_conversion=1 * units.pJ),
                            (1, 16))
        delay = 1e-3
        assert array.energy(3200, delay) == pytest.approx(
            2 * array.energy(1600, delay))

    def test_parallelism_lowers_adc_energy(self):
        """More ADC columns => each converts slower => lower FoM energy.

        This is the column-parallel vs chip-serial design contrast CamJ
        resolves through per-access delay allocation.  The effect shows
        where the serial converter is pushed above the Walden FoM corner
        (~100 MS/s) while the parallel columns stay below it.
        """
        serial = AnalogArray("OneADC")
        serial.add_component(ColumnADC(), (1, 1))
        parallel = AnalogArray("ColumnADCs")
        parallel.add_component(ColumnADC(), (1, 640))
        ops = 640 * 400
        delay = 0.5e-3  # serial: 512 MS/s (above corner); parallel: 800 kS/s
        assert parallel.energy(ops, delay) < serial.energy(ops, delay)

    def test_breakdown_covers_all_components(self):
        array = AnalogArray("Mixed")
        array.add_component(ActivePixelSensor(), (16, 16))
        array.add_component(ColumnADC(), (1, 16))
        breakdown = array.energy_breakdown(256, 1e-3)
        assert set(breakdown) == {"APS", "ADC"}
        assert all(v > 0 for v in breakdown.values())

    def test_underutilized_component_idles(self):
        """ops < components: per-access delay capped at the array delay."""
        array = AnalogArray("Wide")
        array.add_component(ColumnADC(energy_per_conversion=None), (1, 1000))
        energy = array.energy(10, 1e-3)
        assert energy > 0

    def test_rejects_non_positive_delay(self):
        with pytest.raises(ConfigurationError):
            _pixel_array().energy(100, 0.0)


class TestDelayColumns:
    """A column of delays gives, per element, the float call's energy."""

    def test_each_element_equals_the_float_call(self, delay_column):
        array = AnalogArray("Readout")
        array.add_component(ActivePixelSensor(num_shared_pixels=4), (16, 16))
        array.add_component(ColumnADC(), (1, 16))
        delays = delay_column.tolist()
        for ops in (64.0, 1024.0):
            breakdown = array.energy_breakdown(ops, delay_column)
            floats = [array.energy_breakdown(ops, d) for d in delays]
            assert list(breakdown) == ["APS", "ADC"]
            for name, energies in breakdown.items():
                assert energies.tolist() == [point[name] for point in floats]
            assert array.energy(ops, delay_column).tolist() \
                == [array.energy(ops, d) for d in delays]

    def test_a_non_positive_delay_is_rejected(self, delay_column):
        delay_column[17] = 0.0
        with pytest.raises(ConfigurationError, match="positive"):
            _pixel_array().energy_breakdown(100, delay_column)


class TestWiring:
    def test_array_to_array(self):
        pixels = _pixel_array()
        adcs = AnalogArray("ADCs")
        adcs.add_component(ColumnADC(), (1, 16))
        pixels.set_output(adcs)
        assert adcs in pixels.output_arrays
        assert pixels in adcs.input_arrays

    def test_array_to_memory(self):
        pixels = _pixel_array()
        fifo = FIFO("F", size=(1, 64), write_energy_per_word=1e-12,
                    read_energy_per_word=1e-12)
        pixels.set_output(fifo)
        assert fifo in pixels.output_memories
        assert pixels.output_arrays == []

    def test_idempotent_wiring(self):
        pixels = _pixel_array()
        adcs = AnalogArray("ADCs")
        adcs.add_component(ColumnADC(), (1, 16))
        pixels.set_output(adcs)
        pixels.set_output(adcs)
        assert len(pixels.output_arrays) == 1

    def test_describe(self):
        text = _pixel_array().describe()
        assert "PixelArray" in text and "APS" in text
