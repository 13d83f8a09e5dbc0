"""Three-layer stacked CIS (Sony IMX 400 style, Sec. 2.1).

The paper's survey highlights three-layer stacks: a pixel layer, a DRAM
layer buffering full frames, and a logic layer with an ISP.  The flagship
use is slow-motion burst capture: the sensor reads out at a very high
frame rate into the DRAM, and the ISP drains buffered frames at a normal
output rate.  This module builds that design with the public API — an
exploration the paper's framework enables beyond its own evaluation.
"""

from __future__ import annotations

from repro import units
from repro.api.design import Design
from repro.api.result import SimOptions
from repro.api.simulator import run_design
from repro.energy.report import EnergyReport
from repro.hw.analog.array import AnalogArray
from repro.hw.analog.components import ActivePixelSensor, ColumnADC
from repro.hw.chip import SensorSystem
from repro.hw.digital.compute import ComputeUnit
from repro.hw.digital.memory import DoubleBuffer, FIFO
from repro.hw.layer import Layer, SENSOR_LAYER
from repro.memlib import DRAMModel, SRAMModel
from repro.sw.stage import PixelInput, ProcessStage

#: Layer names of the three-die stack.
DRAM_LAYER = "dram"
LOGIC_LAYER = "logic"

_ROWS, _COLS = 1080, 1920


def build_three_layer(burst_fps: float = 960.0) -> Design:
    """A 1080p burst-capture stack: pixel / DRAM / logic layers.

    Returns a :class:`Design`; read its parts as ``.stages``,
    ``.system`` and ``.mapping``.
    """
    source = PixelInput((_ROWS, _COLS, 1), name="Input", bits_per_pixel=10)
    isp = ProcessStage("ISP", input_size=(_ROWS, _COLS, 1),
                       kernel=(3, 3, 1), stride=(1, 1, 1), padding="same",
                       output_compression=0.5)  # encoded output
    isp.set_input_stage(source)

    system = SensorSystem("IMX400-style",
                          layers=[Layer(SENSOR_LAYER, 90),
                                  Layer(DRAM_LAYER, 65),
                                  Layer(LOGIC_LAYER, 28)])

    pixels = AnalogArray("PixelArray", SENSOR_LAYER,
                         num_input=(1, _COLS), num_output=(1, _COLS))
    pixels.add_component(
        ActivePixelSensor(num_transistors=4,
                          pd_capacitance=7 * units.fF,
                          load_capacitance=1.6 * units.pF,
                          voltage_swing=1.0, vdda=2.8),
        (_ROWS, _COLS))
    adcs = AnalogArray("ADCArray", SENSOR_LAYER,
                       num_input=(1, _COLS), num_output=(1, _COLS))
    adcs.add_component(ColumnADC(bits=10), (1, _COLS))
    pixels.set_output(adcs)

    dram_model = DRAMModel(capacity_bytes=16 * units.MB)
    frame_dram = DoubleBuffer(
        "FrameDRAM", DRAM_LAYER,
        size=(int(16 * units.MB), 1),
        capacity_bytes=16 * units.MB,
        write_energy_per_word=dram_model.write_energy_per_byte,
        read_energy_per_word=dram_model.read_energy_per_byte,
        leakage_power=dram_model.refresh_power,
        duty_alpha=1.0,  # DRAM must refresh as long as frames are held
        num_read_ports=64, num_write_ports=64)
    adcs.set_output(frame_dram)

    line_macro = SRAMModel(capacity_bytes=8 * units.KB, word_bits=64,
                           node_nm=28)
    isp_buffer = FIFO("ISPBuffer", LOGIC_LAYER,
                      size=(int(8 * units.KB), 1),
                      write_energy_per_word=line_macro.write_energy_per_byte,
                      read_energy_per_word=line_macro.read_energy_per_byte,
                      leakage_power=line_macro.leakage_power,
                      duty_alpha=0.5,
                      num_read_ports=16,
                      num_write_ports=16,
                      area=line_macro.area)
    isp_unit = ComputeUnit("ISPCore", LOGIC_LAYER,
                           input_pixels_per_cycle=(1, 8),
                           output_pixels_per_cycle=(1, 8),
                           energy_per_cycle=16 * units.pJ,
                           num_stages=6,
                           clock_hz=600 * units.MHz,
                           area=line_macro.area * 8)
    isp_unit.set_input(frame_dram)
    isp_unit.set_output(isp_buffer)
    encoder = ComputeUnit("Encoder", LOGIC_LAYER,
                          input_pixels_per_cycle=(1, 8),
                          output_pixels_per_cycle=(1, 4),
                          energy_per_cycle=10 * units.pJ,
                          num_stages=4,
                          clock_hz=600 * units.MHz)
    encoder.set_input(isp_buffer)
    encoder.set_sink()

    system.add_analog_array(pixels)
    system.add_analog_array(adcs)
    system.add_memory(frame_dram)
    system.add_memory(isp_buffer)
    system.add_compute_unit(isp_unit)
    system.add_compute_unit(encoder)
    system.set_pixel_array_geometry(_ROWS, _COLS, pitch=1.6 * units.um)

    encode = ProcessStage("Encode", input_size=(_ROWS, _COLS, 1),
                          kernel=(1, 1, 1), stride=(1, 1, 1),
                          output_compression=0.25)
    encode.set_input_stage(isp)
    mapping = {"Input": "PixelArray", "ISP": "ISPCore",
               "Encode": "Encoder"}
    return Design([source, isp, encode], system, mapping)


def run_three_layer(burst_fps: float = 960.0) -> EnergyReport:
    """Simulate the burst-capture stack at the burst frame rate."""
    return run_design(build_three_layer(burst_fps),
                      SimOptions(frame_rate=burst_fps)).unwrap()
