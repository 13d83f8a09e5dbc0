"""Shared fixtures: the paper's Fig. 5 example system, reusable per test."""

from __future__ import annotations

import pytest

from repro import units
from repro.api import Design
from repro.hw.analog.array import AnalogArray
from repro.hw.analog.components import ActivePixelSensor, ColumnADC
from repro.hw.chip import SensorSystem
from repro.hw.digital.compute import ComputeUnit
from repro.hw.digital.memory import FIFO, DigitalMemory
from repro.hw.layer import Layer, SENSOR_LAYER
from repro.sw.stage import PixelInput, ProcessStage
from repro.usecases.fig5 import (
    FIG5_MAPPING,
    build_fig5_stages,
    build_fig5_system,
)

__all__ = ["FIG5_MAPPING", "build_fig5_stages", "build_fig5_system"]


@pytest.fixture(autouse=True)
def _no_ambient_disk_cache(monkeypatch):
    """Insulate every test from an operator's ``REPRO_CACHE_DIR``.

    A populated personal cache directory would turn cold-path
    assertions (miss counters, ``cached`` flags) into disk hits; tests
    that exercise the env-var behavior set it explicitly.
    """
    monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)


@pytest.fixture(autouse=True)
def _no_ambient_chaos(monkeypatch):
    """Insulate every test from an operator's chaos/resilience env.

    A shell still exporting ``REPRO_FAULTS`` (or retry/timeout tuning)
    from a chaos-testing session would inject deterministic worker
    kills — or reshape retry budgets — inside unrelated unit tests.
    Scrub the variables and reset the cached fault injector so only
    tests that set them explicitly see them.
    """
    from repro.resilience.faults import reset_injector

    for variable in ("REPRO_FAULTS", "REPRO_RETRY_MAX_ATTEMPTS",
                     "REPRO_RETRY_BASE_DELAY_S", "REPRO_TASK_TIMEOUT_S",
                     "REPRO_EXECUTOR", "REPRO_LEASE_TTL_S",
                     "REPRO_HEARTBEAT_S"):
        monkeypatch.delenv(variable, raising=False)
    reset_injector()
    yield
    reset_injector()


@pytest.fixture
def slow_jobs(monkeypatch):
    """Make every simulation sleep for twice the switch interval.

    The thread backend runs jobs whose mean wall time stays within
    ``sys.getswitchinterval()`` on the calling thread, so the repo's
    sub-millisecond designs never reach its pool.  This GIL-releasing
    delay makes jobs measure slow: after the first one the rest of a
    batch goes to the pool, so pool lifecycle can be observed.
    """
    import sys
    import time

    import repro.api.simulator as simulator_module

    real_engine = simulator_module._simulate_graph
    delay_s = 2 * sys.getswitchinterval()

    def slow_engine(*args, **kwargs):
        time.sleep(delay_s)
        return real_engine(*args, **kwargs)

    monkeypatch.setattr(simulator_module, "_simulate_graph", slow_engine)


def streaming_design(size: int, fractional_mid: bool = True) -> Design:
    """Input -> Denoise -> Sharpen streamed over a ``size x size`` frame.

    With ``fractional_mid`` the buffer between the two PEs holds 10-bit
    pixels packed into a byte-addressed SRAM, so its pixel capacity is
    fractional: the event-driven cycle simulator hands such designs to
    the reference per-cycle loop (O(cycles x stages x depth)), which
    makes cycle-exact evaluation expensive enough for cache-reuse
    speedups to be measurable.  Without it the buffer is a
    ``2 * size``-entry FIFO the event-driven simulator handles itself.
    """
    source = PixelInput((size, size, 1), name="Input")
    denoise = ProcessStage("Denoise", input_size=(size, size, 1),
                           kernel=(1, 1, 1), stride=(1, 1, 1))
    sharpen = ProcessStage("Sharpen", input_size=(size, size, 1),
                           kernel=(1, 1, 1), stride=(1, 1, 1))
    denoise.set_input_stage(source)
    sharpen.set_input_stage(denoise)

    system = SensorSystem(f"Validate-{size}",
                          layers=[Layer(SENSOR_LAYER, 65)])
    pixels = AnalogArray("Pixels")
    pixels.add_component(ActivePixelSensor(), (size, size))
    adcs = AnalogArray("ADCs")
    adcs.add_component(ColumnADC(), (1, size))
    pixels.set_output(adcs)
    in_fifo = FIFO("InFifo", size=(1, 4 * size), write_energy_per_word=0,
                   read_energy_per_word=0, num_read_ports=4,
                   num_write_ports=4)
    adcs.set_output(in_fifo)
    if fractional_mid:
        mid = DigitalMemory("Mid", capacity_pixels=2 * size * 8 / 10 + 0.4,
                            write_energy_per_word=0.2 * units.pJ,
                            read_energy_per_word=0.2 * units.pJ,
                            num_read_ports=4, num_write_ports=4)
    else:
        mid = FIFO("Mid", size=(1, 2 * size), write_energy_per_word=0,
                   read_energy_per_word=0, num_read_ports=4,
                   num_write_ports=4)
    first = ComputeUnit("DenoisePE", input_pixels_per_cycle=(1, 1),
                        output_pixels_per_cycle=(1, 1),
                        energy_per_cycle=1 * units.pJ, num_stages=3)
    second = ComputeUnit("SharpenPE", input_pixels_per_cycle=(1, 1),
                         output_pixels_per_cycle=(1, 1),
                         energy_per_cycle=1 * units.pJ, num_stages=2)
    first.set_input(in_fifo).set_output(mid)
    second.set_input(mid)
    second.set_sink()
    system.add_analog_array(pixels)
    system.add_analog_array(adcs)
    system.add_memory(in_fifo)
    system.add_memory(mid)
    system.add_compute_unit(first)
    system.add_compute_unit(second)
    system.set_pixel_array_geometry(size, size)
    return Design([source, denoise, sharpen], system,
                  {"Input": "Pixels", "Denoise": "DenoisePE",
                   "Sharpen": "SharpenPE"}, name=f"Validate-{size}")


@pytest.fixture
def streaming_builder():
    """:func:`streaming_design` as a ``size -> Design`` usecase builder."""
    return streaming_design


@pytest.fixture
def delay_column():
    """200 random delays, log-uniform from 30 ps to 10 ms (fixed seed).

    The per-point column the explore fast path hands the analog models;
    the ADC sample rates it implies run past both ends of the Walden
    survey.
    """
    import numpy
    return 10.0 ** numpy.random.default_rng(20).uniform(-10.5, -2.0, 200)


@pytest.fixture
def fig5_stages():
    return build_fig5_stages()


@pytest.fixture
def fig5_system():
    return build_fig5_system()


@pytest.fixture
def fig5_mapping():
    return dict(FIG5_MAPPING)
