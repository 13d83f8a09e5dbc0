"""Tests for digital memory structures (Eq. 16)."""

import numpy as np
import pytest

from repro import units
from repro.exceptions import ConfigurationError
from repro.hw.digital.memory import DoubleBuffer, FIFO, LineBuffer
from repro.memlib import SRAMModel, STTRAMModel


def _fifo(**kwargs):
    defaults = dict(size=(1, 256),
                    write_energy_per_word=0.5 * units.pJ,
                    read_energy_per_word=0.4 * units.pJ)
    defaults.update(kwargs)
    return FIFO("F", **defaults)


class TestConstruction:
    def test_capacity_from_size(self):
        assert _fifo().capacity_pixels == 256

    def test_line_buffer_requires_2d_size(self):
        with pytest.raises(ConfigurationError):
            LineBuffer("LB", size=(3,), write_energy_per_word=0,
                       read_energy_per_word=0)

    def test_line_buffer_rows_and_length(self):
        lb = LineBuffer("LB", size=(3, 640), write_energy_per_word=0,
                        read_energy_per_word=0)
        assert lb.num_rows == 3
        assert lb.row_length == 640

    def test_line_buffer_default_port_per_row(self):
        lb = LineBuffer("LB", size=(3, 640), write_energy_per_word=0,
                        read_energy_per_word=0)
        assert lb.num_read_ports == 3

    def test_invalid_duty_alpha_rejected(self):
        with pytest.raises(ConfigurationError):
            _fifo(duty_alpha=1.5)

    def test_negative_energy_rejected(self):
        with pytest.raises(ConfigurationError):
            _fifo(write_energy_per_word=-1.0)


class TestDynamicEnergy:
    def test_write_energy_per_pixel(self):
        fifo = _fifo()
        assert fifo.write_energy(100) == pytest.approx(100 * 0.5 * units.pJ)

    def test_read_energy_per_pixel(self):
        fifo = _fifo()
        assert fifo.read_energy(100) == pytest.approx(100 * 0.4 * units.pJ)

    def test_word_packing_divides_accesses(self):
        packed = _fifo(pixels_per_write_word=4)
        assert packed.write_energy(100) == pytest.approx(
            25 * 0.5 * units.pJ)

    def test_negative_pixel_count_rejected(self):
        with pytest.raises(ConfigurationError):
            _fifo().read_energy(-1)


class TestLeakage:
    def test_eq16_leakage_term(self):
        """E_leak = P_leak * (1/FR) * alpha."""
        fifo = _fifo(leakage_power=1 * units.uW, duty_alpha=0.5)
        frame_time = 1 / 30
        assert fifo.leakage_energy(frame_time) == pytest.approx(
            1e-6 * frame_time * 0.5)

    def test_power_gated_memory_leaks_nothing(self):
        fifo = _fifo(leakage_power=1 * units.uW, duty_alpha=0.0)
        assert fifo.leakage_energy(1 / 30) == 0.0

    def test_frame_time_must_be_positive(self):
        with pytest.raises(ConfigurationError):
            _fifo().leakage_energy(0.0)

    def test_frame_time_column_must_be_positive(self):
        with pytest.raises(ConfigurationError, match="positive"):
            _fifo().leakage_energy(np.array([1 / 30, 0.0]))

    def test_frame_time_column_leaks_per_point(self):
        fifo = _fifo(leakage_power=1 * units.uW, duty_alpha=0.5)
        frame_times = [1 / 15, 1 / 30, 1 / 60]
        leakage = fifo.leakage_energy(np.array(frame_times))
        assert leakage.tolist() == [fifo.leakage_energy(frame_time)
                                    for frame_time in frame_times]


class TestDoubleBufferFromModel:
    def test_scalars_come_from_sram_model(self):
        sram = SRAMModel(capacity_bytes=64 * units.KB, node_nm=22)
        buf = DoubleBuffer.from_model("DB", sram)
        assert buf.write_energy_per_word == pytest.approx(
            sram.write_energy_per_word)
        assert buf.read_energy_per_word == pytest.approx(
            sram.read_energy_per_word)
        assert buf.leakage_power == pytest.approx(sram.leakage_power)
        assert buf.area == pytest.approx(sram.area)

    def test_sttram_backing_cuts_leakage(self):
        sram = DoubleBuffer.from_model(
            "S", SRAMModel(capacity_bytes=64 * units.KB, node_nm=22))
        stt = DoubleBuffer.from_model(
            "T", STTRAMModel(capacity_bytes=64 * units.KB, node_nm=22))
        assert stt.leakage_power < 0.05 * sram.leakage_power

    def test_duty_alpha_passthrough(self):
        sram = SRAMModel(capacity_bytes=8 * units.KB)
        buf = DoubleBuffer.from_model("DB", sram, duty_alpha=0.25)
        assert buf.duty_alpha == 0.25

    def test_word_packing_derived_from_word_bits(self):
        sram = SRAMModel(capacity_bytes=8 * units.KB, word_bits=64)
        buf = DoubleBuffer.from_model("DB", sram)
        assert buf.pixels_per_read_word == 8
