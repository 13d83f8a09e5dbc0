"""Rhythmic Pixel Regions [37] use case (Fig. 8a / Fig. 9a, Sec. 6.1).

A 1280x720 sensor feeds a Compare & Sample accelerator that encodes
multi-resolution regions of interest: ~7.4e6 arithmetic operations per
frame, halving the data volume that must leave the chip (ROI = 50 % of the
full image).  The original system runs the encoder on the host SoC; the
exploration moves it inside the (2D or stacked) sensor.
"""

from __future__ import annotations

from typing import List

from repro import units
from repro.api.design import Design
from repro.api.result import SimOptions
from repro.api.simulator import run_design
from repro.energy.report import EnergyReport
from repro.hw.analog.array import AnalogArray
from repro.hw.analog.components import ActivePixelSensor, ColumnADC
from repro.hw.chip import SensorSystem
from repro.hw.digital.compute import ComputeUnit
from repro.hw.digital.memory import FIFO
from repro.hw.layer import COMPUTE_LAYER, Layer, SENSOR_LAYER
from repro.memlib import SRAMModel
from repro.sw.stage import PixelInput, ProcessStage
from repro.tech import mac_energy
from repro.usecases.common import FRAME_RATE, UseCaseConfig

_ROWS, _COLS = 720, 1280
#: Arithmetic operations of the Compare & Sample encoder per frame (paper).
TOTAL_OPS = 7.4e6
#: The ROI encoding halves the transmitted image (paper).
ROI_COMPRESSION = 0.5
#: Digital PE lanes (Fig. 8a).
NUM_PE_LANES = 16


def build_rhythmic(config: UseCaseConfig) -> Design:
    """Build the Rhythmic scenario for one configuration.

    Returns a :class:`Design`; read its parts as ``.stages``,
    ``.system`` and ``.mapping``.
    """
    source = PixelInput((_ROWS, _COLS, 1), name="Input")
    ops_per_pixel = TOTAL_OPS / (_ROWS * _COLS)
    encode = ProcessStage("CompareSample", input_size=(_ROWS, _COLS, 1),
                          kernel=(1, 1, 1), stride=(1, 1, 1),
                          ops_per_output=ops_per_pixel,
                          output_compression=ROI_COMPRESSION)
    encode.set_input_stage(source)

    layers = [Layer(SENSOR_LAYER, config.cis_node)]
    if config.is_stacked:
        layers.append(Layer(COMPUTE_LAYER, config.digital_node))
    system = SensorSystem(f"Rhythmic {config.label}", layers=layers)
    if config.placement == "2D-Off":
        system.add_offchip_host(config.host_node)

    pixels = AnalogArray("PixelArray", SENSOR_LAYER,
                         num_input=(1, _COLS), num_output=(1, _COLS))
    pixels.add_component(
        ActivePixelSensor(
            num_transistors=4,
            pd_capacitance=8 * units.fF,
            load_capacitance=1.4 * units.pF,
            voltage_swing=1.0,
            vdda=2.5),
        (_ROWS, _COLS))
    adcs = AnalogArray("ADCArray", SENSOR_LAYER,
                       num_input=(1, _COLS), num_output=(1, _COLS))
    adcs.add_component(ColumnADC(bits=10), (1, _COLS))
    pixels.set_output(adcs)

    digital_layer = config.digital_layer
    node = config.digital_node
    # Per-word FIFO energies follow a small SRAM macro at the digital node.
    fifo_macro = SRAMModel(capacity_bytes=2560, word_bits=8, node_nm=node)
    fifo = FIFO("PixelFIFO", digital_layer, size=(1, 2560),
                write_energy_per_word=fifo_macro.write_energy_per_word,
                read_energy_per_word=fifo_macro.read_energy_per_word,
                leakage_power=fifo_macro.leakage_power,
                num_read_ports=NUM_PE_LANES,
                num_write_ports=NUM_PE_LANES,
                area=fifo_macro.area)
    adcs.set_output(fifo)
    # 16 op lanes per cycle; at ~8 ops per pixel the pixel throughput is
    # 2 px/cycle, reproducing the paper's 7.4e6 operations per frame.  One
    # Compare & Sample op costs about two MAC-equivalents (compare, sample,
    # and region-header bookkeeping).
    encoder = ComputeUnit("CompareSamplePE", digital_layer,
                          input_pixels_per_cycle=(1, 2),
                          output_pixels_per_cycle=(1, 2),
                          energy_per_cycle=(NUM_PE_LANES * 2
                                            * mac_energy(node)),
                          num_stages=2,
                          clock_hz=200 * units.MHz,
                          area=fifo_macro.area * 4)
    encoder.set_input(fifo)
    encoder.set_sink()
    system.add_analog_array(pixels)
    system.add_analog_array(adcs)
    system.add_memory(fifo)
    system.add_compute_unit(encoder)
    system.set_pixel_array_geometry(_ROWS, _COLS, pitch=3.0 * units.um)

    mapping = {"Input": "PixelArray", "CompareSample": "CompareSamplePE"}
    return Design([source, encode], system, mapping)


def run_rhythmic(config: UseCaseConfig) -> EnergyReport:
    """Simulate one Rhythmic configuration at the 30 FPS target."""
    return run_design(build_rhythmic(config),
                      SimOptions(frame_rate=FRAME_RATE)).unwrap()


def rhythmic_configs() -> List[UseCaseConfig]:
    """The Fig. 9a grid: {2D-In, 2D-Off, 3D-In} x {130 nm, 65 nm}."""
    return [UseCaseConfig(placement, node)
            for node in (130, 65)
            for placement in ("2D-In", "2D-Off", "3D-In")]


def rhythmic_space():
    """The Fig. 9a grid as a parameter space for the exploration engine.

    Enumerates the same points, in the same order, as
    :func:`rhythmic_configs`; the axis names match the registered
    ``"rhythmic"`` use-case builder's parameters.
    """
    from repro.explore.space import choice, product
    return product(choice("cis_node", [130, 65]),
                   choice("placement", ["2D-In", "2D-Off", "3D-In"]))
