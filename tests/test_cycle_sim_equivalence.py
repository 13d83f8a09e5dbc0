"""Equivalence: event-driven cycle simulator vs the reference loop.

The event-driven simulator must be an observationally perfect drop-in
for ``_cycle_accurate_reference``: bit-identical cycle counts on every
configuration that completes, and the same exception type *and message*
(including the stall cycle number) on every configuration that does not.
These property-style tests sweep randomized small pipelines across the
interesting regimes — streaming, pipeline fill/drain, undersized
buffers, too few ports, mixed clocks — and compare outcomes pairwise.
"""

import random
import time

import pytest

from repro import units
from repro.exceptions import SimulationError, StallError
from repro.hw.analog.array import AnalogArray
from repro.hw.analog.components import ActivePixelSensor, ColumnADC
from repro.hw.chip import SensorSystem
from repro.hw.digital.compute import ComputeUnit, DEFAULT_CLOCK_HZ
from repro.hw.digital.memory import DoubleBuffer, FIFO
from repro.hw.layer import Layer, SENSOR_LAYER
from repro.sim.cycle_sim import (
    _cycle_accurate_reference,
    cycle_accurate_latency,
)
from repro.sim.mapping import Mapping
from repro.sw.dag import StageGraph
from repro.sw.stage import PixelInput, ProcessStage

from repro.usecases.fig5 import (
    FIG5_MAPPING,
    build_fig5_stages,
    build_fig5_system,
)

#: Generous for 16x16 frames, small enough to keep stuck seeds fast.
_MAX_CYCLES = 200_000


def _outcome(simulator, graph, system, mapping, max_cycles=_MAX_CYCLES):
    """(tag, payload) for one simulator run: latency or error message."""
    try:
        return "ok", simulator(graph, system, mapping, max_cycles)
    except StallError as error:
        return "StallError", str(error)
    except SimulationError as error:
        return "SimulationError", str(error)


def _assert_equivalent(graph, system, mapping, max_cycles=_MAX_CYCLES):
    event = _outcome(cycle_accurate_latency, graph, system, mapping,
                     max_cycles)
    reference = _outcome(_cycle_accurate_reference, graph, system, mapping,
                         max_cycles)
    assert event == reference  # same latency bit-for-bit, or same error


def _random_scenario(seed):
    """A randomized linear pipeline covering the stall regimes.

    Undersized FIFOs produce deadlocks, stingy read ports produce the
    port stall, occasional off-clock units produce the uniform-clock
    error, and everything else streams to completion.
    """
    rng = random.Random(seed)
    size = rng.choice([4, 8, 16])
    n_digital = rng.randint(1, 3)

    source = PixelInput((size, size, 1), name="Input")
    stages = [source]
    previous = source
    for index in range(n_digital):
        stage = ProcessStage(f"S{index}", input_size=(size, size, 1),
                             kernel=(1, 1, 1), stride=(1, 1, 1))
        stage.set_input_stage(previous)
        stages.append(stage)
        previous = stage

    system = SensorSystem("Rand", layers=[Layer(SENSOR_LAYER, 65)])
    pixels = AnalogArray("Pixels")
    pixels.add_component(ActivePixelSensor(), (size, size))
    adcs = AnalogArray("ADCs")
    adcs.add_component(ColumnADC(), (1, size))
    pixels.set_output(adcs)
    system.add_analog_array(pixels)
    system.add_analog_array(adcs)

    in_fifo = FIFO("M0", size=(1, rng.choice([16, 64, size * size])),
                   write_energy_per_word=0, read_energy_per_word=0,
                   num_read_ports=rng.choice([1, 4, 8]),
                   num_write_ports=8)
    adcs.set_output(in_fifo)
    system.add_memory(in_fifo)

    mapping = {"Input": "Pixels"}
    previous_memory = in_fifo
    for index in range(n_digital):
        clock = DEFAULT_CLOCK_HZ
        if rng.random() < 0.1:
            clock = 2 * DEFAULT_CLOCK_HZ  # mixed clock: SimulationError
        unit = ComputeUnit(
            f"PE{index}",
            input_pixels_per_cycle=rng.choice([(1, 1), (1, 2), (2, 2),
                                               (1, 4)]),
            output_pixels_per_cycle=rng.choice([(1, 1), (1, 2), (2, 1)]),
            energy_per_cycle=1 * units.pJ,
            num_stages=rng.randint(1, 4),
            clock_hz=clock)
        unit.set_input(previous_memory)
        if index < n_digital - 1:
            memory = FIFO(f"M{index + 1}",
                          size=(1, rng.choice([2, 4, 16, 256])),
                          write_energy_per_word=0, read_energy_per_word=0,
                          num_read_ports=rng.choice([1, 2, 8]),
                          num_write_ports=8)
            unit.set_output(memory)
            system.add_memory(memory)
            previous_memory = memory
        else:
            unit.set_sink()
        system.add_compute_unit(unit)
        mapping[f"S{index}"] = f"PE{index}"

    return StageGraph(stages), system, Mapping(mapping)


class TestRandomizedEquivalence:
    @pytest.mark.parametrize("seed", range(40))
    def test_random_pipeline(self, seed):
        graph, system, mapping = _random_scenario(seed)
        _assert_equivalent(graph, system, mapping)

    def test_all_regimes_are_exercised(self):
        """The seed range must cover success and both error outcomes."""
        tags = set()
        for seed in range(40):
            graph, system, mapping = _random_scenario(seed)
            tags.add(_outcome(cycle_accurate_latency, graph, system,
                              mapping)[0])
        assert tags == {"ok", "StallError", "SimulationError"}


class TestDeterministicEquivalence:
    def test_streaming_frames_identical_and_ten_times_faster(
            self, streaming_builder):
        """64/256/512-pixel streaming frames: identical cycle counts at
        every size, and the event-driven skip-ahead beats the reference
        loop >= 10x on the medium (256) frame."""
        speedups = {}
        for size in (64, 256, 512):
            design = streaming_builder(size, fractional_mid=False)
            parts = (design.graph, design.system, design.mapping)
            started = time.perf_counter()
            reference = _cycle_accurate_reference(*parts)
            reference_s = time.perf_counter() - started
            started = time.perf_counter()
            event = cycle_accurate_latency(*parts)
            event_s = time.perf_counter() - started
            assert event == reference, size
            speedups[size] = reference_s / event_s
        assert speedups[256] >= 10.0

    def test_fig5_bit_identical(self):
        graph = StageGraph(build_fig5_stages())
        system = build_fig5_system()
        mapping = Mapping(FIG5_MAPPING)
        exact = cycle_accurate_latency(graph, system, mapping)
        reference = _cycle_accurate_reference(graph, system, mapping)
        assert exact == reference

    def _two_unit_pipeline(self, mid_size=2, consumer_need=(1, 4),
                           mid_ports=8, depth_a=1, depth_b=1):
        source = PixelInput((16, 16, 1), name="Input")
        stage_a = ProcessStage("A", input_size=(16, 16, 1),
                               kernel=(1, 1, 1), stride=(1, 1, 1))
        stage_b = ProcessStage("B", input_size=(16, 16, 1),
                               kernel=(1, 1, 1), stride=(1, 1, 1))
        stage_a.set_input_stage(source)
        stage_b.set_input_stage(stage_a)

        system = SensorSystem("S", layers=[Layer(SENSOR_LAYER, 65)])
        pixels = AnalogArray("Pixels")
        pixels.add_component(ActivePixelSensor(), (16, 16))
        adcs = AnalogArray("ADCs")
        adcs.add_component(ColumnADC(), (1, 16))
        pixels.set_output(adcs)
        in_fifo = FIFO("InFifo", size=(1, 1024), write_energy_per_word=0,
                       read_energy_per_word=0, num_read_ports=8,
                       num_write_ports=8)
        adcs.set_output(in_fifo)
        mid = FIFO("Mid", size=(1, mid_size), write_energy_per_word=0,
                   read_energy_per_word=0, num_read_ports=mid_ports,
                   num_write_ports=8)
        unit_a = ComputeUnit("PEA", input_pixels_per_cycle=(1, 1),
                             output_pixels_per_cycle=(1, 1),
                             energy_per_cycle=1e-12, num_stages=depth_a)
        unit_b = ComputeUnit("PEB", input_pixels_per_cycle=consumer_need,
                             output_pixels_per_cycle=(1, 1),
                             energy_per_cycle=1e-12, num_stages=depth_b)
        unit_a.set_input(in_fifo).set_output(mid)
        unit_b.set_input(mid)
        unit_b.set_sink()
        for part in (in_fifo, mid):
            system.add_memory(part)
        system.add_compute_unit(unit_a)
        system.add_compute_unit(unit_b)
        system.add_analog_array(pixels)
        system.add_analog_array(adcs)
        graph = StageGraph([source, stage_a, stage_b])
        mapping = Mapping({"Input": "Pixels", "A": "PEA", "B": "PEB"})
        return graph, system, mapping

    def test_deadlock_message_identical(self):
        """Same stall cycle number, same blocked-stage list."""
        graph, system, mapping = self._two_unit_pipeline()
        event = _outcome(cycle_accurate_latency, graph, system, mapping)
        reference = _outcome(_cycle_accurate_reference, graph, system,
                             mapping)
        assert event[0] == "StallError"
        assert event == reference
        assert "deadlocked at cycle" in event[1]

    def test_port_stall_identical(self):
        """Reads per cycle beyond the port budget stall both the same."""
        graph, system, mapping = self._two_unit_pipeline(
            mid_size=64, consumer_need=(4, 4), mid_ports=1)
        event = _outcome(cycle_accurate_latency, graph, system, mapping)
        reference = _outcome(_cycle_accurate_reference, graph, system,
                             mapping)
        assert event[0] == "StallError"
        assert "too few read ports" in event[1]
        assert event == reference

    def test_backpressure_oscillation_identical(self):
        """A fast producer throttled by a tiny mid buffer, draining fine."""
        graph, system, mapping = self._two_unit_pipeline(
            mid_size=4, consumer_need=(1, 1), depth_a=3, depth_b=2)
        _assert_equivalent(graph, system, mapping)

    def test_max_cycles_exceeded_identical(self):
        graph, system, mapping = self._two_unit_pipeline(
            mid_size=256, consumer_need=(1, 1))
        event = _outcome(cycle_accurate_latency, graph, system, mapping,
                         max_cycles=10)
        reference = _outcome(_cycle_accurate_reference, graph, system,
                             mapping, max_cycles=10)
        assert event == reference
        assert event[0] == "SimulationError"
        assert "exceeded 10 cycles" in event[1]

    def test_double_buffer_decoupled_identical(self):
        """Frame-granularity buffering between the units."""
        source = PixelInput((8, 8, 1), name="Input")
        stage_a = ProcessStage("A", input_size=(8, 8, 1),
                               kernel=(1, 1, 1), stride=(1, 1, 1))
        stage_b = ProcessStage("B", input_size=(8, 8, 1),
                               kernel=(1, 1, 1), stride=(1, 1, 1))
        stage_a.set_input_stage(source)
        stage_b.set_input_stage(stage_a)
        system = SensorSystem("S", layers=[Layer(SENSOR_LAYER, 65)])
        pixels = AnalogArray("Pixels")
        pixels.add_component(ActivePixelSensor(), (8, 8))
        adcs = AnalogArray("ADCs")
        adcs.add_component(ColumnADC(), (1, 8))
        pixels.set_output(adcs)
        in_fifo = FIFO("InFifo", size=(1, 64), write_energy_per_word=0,
                       read_energy_per_word=0, num_read_ports=4,
                       num_write_ports=4)
        adcs.set_output(in_fifo)
        buffer = DoubleBuffer("Buf", size=(8, 8), write_energy_per_word=0,
                              read_energy_per_word=0, num_read_ports=4,
                              num_write_ports=4)
        unit_a = ComputeUnit("PEA", input_pixels_per_cycle=(1, 1),
                             output_pixels_per_cycle=(1, 1),
                             energy_per_cycle=1e-12)
        unit_b = ComputeUnit("PEB", input_pixels_per_cycle=(1, 1),
                             output_pixels_per_cycle=(1, 1),
                             energy_per_cycle=1e-12, num_stages=2)
        unit_a.set_input(in_fifo).set_output(buffer)
        unit_b.set_input(buffer)
        unit_b.set_sink()
        system.add_analog_array(pixels)
        system.add_analog_array(adcs)
        system.add_memory(in_fifo)
        system.add_memory(buffer)
        system.add_compute_unit(unit_a)
        system.add_compute_unit(unit_b)
        graph = StageGraph([source, stage_a, stage_b])
        mapping = Mapping({"Input": "Pixels", "A": "PEA", "B": "PEB"})
        _assert_equivalent(graph, system, mapping)

    def test_fractional_port_share_falls_back_identically(self):
        """Three input memories over a 4-pixel need: thresh is 4/3.

        Occupancy bookkeeping is no longer integral, so the event-driven
        simulator must delegate to the reference loop — outcomes stay
        identical by construction, which this guards.
        """
        graph, system, mapping = self._two_unit_pipeline(mid_size=64)
        unit_b = system.find_unit("PEB")
        extra_a = FIFO("ExtraA", size=(1, 16), write_energy_per_word=0,
                       read_energy_per_word=0, num_read_ports=8,
                       num_write_ports=8)
        extra_b = FIFO("ExtraB", size=(1, 16), write_energy_per_word=0,
                       read_energy_per_word=0, num_read_ports=8,
                       num_write_ports=8)
        unit_b.set_input(extra_a).set_input(extra_b)
        system.add_memory(extra_a)
        system.add_memory(extra_b)
        _assert_equivalent(graph, system, mapping)

    def test_empty_digital_domain(self):
        source = PixelInput((8, 8, 1), name="Input")
        system = SensorSystem("S", layers=[Layer(SENSOR_LAYER, 65)])
        pixels = AnalogArray("Pixels")
        pixels.add_component(ActivePixelSensor(), (8, 8))
        system.add_analog_array(pixels)
        graph = StageGraph([source])
        mapping = Mapping({"Input": "Pixels"})
        assert cycle_accurate_latency(graph, system, mapping) == 0.0
        assert _cycle_accurate_reference(graph, system, mapping) == 0.0
