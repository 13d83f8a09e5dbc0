"""Ed-Gaze [17] use case (Fig. 8b / Fig. 9b, Sec. 6.1-6.2).

A 640x400 sensor is 2x2-downsampled, subtracted against the previous frame
to produce an event map, and a ROI DNN (~5.76e7 MACs per frame) extracts
the eye region, cutting the transmitted image by 25 % (ROI = 75 % of the
full frame).  The defining hardware fact: the frame buffer must retain the
previous frame for the subtraction, so it can never be power-gated
(``duty_alpha = 1``) — at 65 nm its leakage dominates, producing the
paper's Finding 1/2.
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
from repro.hw.digital.compute import ComputeUnit, SystolicArray
from repro.hw.digital.memory import DoubleBuffer, LineBuffer
from repro.hw.layer import COMPUTE_LAYER, Layer, SENSOR_LAYER
from repro.memlib import SRAMModel, STTRAMModel
from repro.sw.stage import Conv2DStage, PixelInput, ProcessStage
from repro.tech import mac_energy
from repro.usecases.common import FRAME_RATE, UseCaseConfig

_ROWS, _COLS = 400, 640
#: ROI DNN multiply-accumulates per frame (paper).
DNN_MACS = 5.76e7
#: The ROI cuts the transmitted image by 25 % (ROI = 75 % of the frame).
ROI_FRACTION = 0.75
#: Downsampled frame dimensions (the paper's 320x201 frame buffer ~ 200x320).
_DS_ROWS, _DS_COLS = _ROWS // 2, _COLS // 2


def edgaze_stages() -> List:
    """The Fig. 8b algorithm DAG."""
    source = PixelInput((_ROWS, _COLS, 1), name="Input")
    downsample = ProcessStage("Downsample", input_size=(_ROWS, _COLS, 1),
                              kernel=(2, 2, 1), stride=(2, 2, 1))
    subtract = ProcessStage("FrameSubtract",
                            input_size=(_DS_ROWS, _DS_COLS, 1),
                            kernel=(1, 1, 1), stride=(1, 1, 1),
                            ops_per_output=2.0,  # subtract + threshold
                            bits_per_pixel=1)  # binary event map
    # ROI DNN: a 30x30 stencil per output gives the paper's 5.76e7 MACs
    # (200 * 320 * 900).  The 24-bit output packs the ROI: 75 % of the
    # full-resolution 256000-byte frame = 192000 bytes.
    dnn = Conv2DStage("RoiDNN", input_size=(_DS_ROWS, _DS_COLS, 1),
                      num_kernels=1, kernel_size=(30, 30),
                      bits_per_pixel=24)
    downsample.set_input_stage(source)
    subtract.set_input_stage(downsample)
    dnn.set_input_stage(subtract)
    return [source, downsample, subtract, dnn]


def build_edgaze(config: UseCaseConfig) -> Design:
    """Build the Ed-Gaze scenario for one configuration.

    Returns a :class:`Design`; read its parts as ``.stages``,
    ``.system`` and ``.mapping``.
    """
    stages = edgaze_stages()

    layers = [Layer(SENSOR_LAYER, config.cis_node)]
    if config.is_stacked:
        layers.append(Layer(COMPUTE_LAYER, config.digital_node))
    system = SensorSystem(f"Ed-Gaze {config.label}", layers=layers)
    if config.placement == "2D-Off":
        system.add_offchip_host(config.host_node)

    pixels = AnalogArray("PixelArray", SENSOR_LAYER,
                         num_input=(1, _COLS), num_output=(1, _COLS))
    pixels.add_component(
        ActivePixelSensor(
            num_transistors=4,
            pd_capacitance=8 * units.fF,
            load_capacitance=1.0 * units.pF,
            voltage_swing=1.0,
            vdda=2.5),
        (_ROWS, _COLS))
    adcs = AnalogArray("ADCArray", SENSOR_LAYER,
                       num_input=(1, _COLS), num_output=(1, _COLS))
    adcs.add_component(ColumnADC(bits=10), (1, _COLS))
    pixels.set_output(adcs)

    digital_layer = config.digital_layer
    node = config.digital_node

    line_macro = SRAMModel(capacity_bytes=2 * _COLS, word_bits=8,
                           node_nm=node)
    line_buffer = LineBuffer("LineBuffer", digital_layer, size=(2, _COLS),
                             write_energy_per_word=(
                                 line_macro.write_energy_per_word),
                             read_energy_per_word=(
                                 line_macro.read_energy_per_word),
                             leakage_power=line_macro.leakage_power,
                             num_read_ports=4,
                             num_write_ports=2,
                             area=line_macro.area)
    adcs.set_output(line_buffer)

    frame_macro = SRAMModel(
        capacity_bytes=_DS_ROWS * _DS_COLS, word_bits=64, node_nm=node)
    # The previous frame must survive the whole frame time: never gated.
    frame_buffer = DoubleBuffer.from_model("FrameBuffer", frame_macro,
                                           layer=digital_layer,
                                           duty_alpha=1.0,
                                           num_read_ports=8,
                                           num_write_ports=8)
    dnn_macro_cls = STTRAMModel if config.uses_stt_ram else SRAMModel
    dnn_macro = dnn_macro_cls(capacity_bytes=32 * units.KB, word_bits=64,
                              node_nm=node)
    # Weights/activations also persist across the frame in this design.
    dnn_buffer = DoubleBuffer.from_model("DNNBuffer", dnn_macro,
                                         layer=digital_layer,
                                         duty_alpha=1.0,
                                         num_read_ports=16,
                                         num_write_ports=16)
    if config.uses_stt_ram:
        stt_frame = STTRAMModel(capacity_bytes=_DS_ROWS * _DS_COLS,
                                word_bits=64, node_nm=node)
        frame_buffer = DoubleBuffer.from_model("FrameBuffer", stt_frame,
                                               layer=digital_layer,
                                               duty_alpha=1.0,
                                               num_read_ports=8,
                                               num_write_ports=8)

    downsampler = ComputeUnit("DownsamplePE", digital_layer,
                              input_pixels_per_cycle=(2, 2),
                              output_pixels_per_cycle=(1, 1),
                              energy_per_cycle=mac_energy(node),
                              num_stages=2,
                              clock_hz=200 * units.MHz)
    downsampler.set_input(line_buffer).set_output(frame_buffer)
    subtractor = ComputeUnit("SubtractPE", digital_layer,
                             input_pixels_per_cycle=(1, 2),
                             output_pixels_per_cycle=(1, 1),
                             energy_per_cycle=2 * mac_energy(node),
                             num_stages=2,
                             clock_hz=200 * units.MHz)
    subtractor.set_input(frame_buffer).set_output(dnn_buffer)
    dnn = SystolicArray("DNNArray", digital_layer,
                        dimensions=(16, 16),
                        energy_per_mac=mac_energy(node),
                        utilization=0.85,
                        clock_hz=200 * units.MHz,
                        area=dnn_macro.area)
    dnn.set_input(dnn_buffer)
    dnn.set_sink()

    system.add_analog_array(pixels)
    system.add_analog_array(adcs)
    system.add_memory(line_buffer)
    system.add_memory(frame_buffer)
    system.add_memory(dnn_buffer)
    system.add_compute_unit(downsampler)
    system.add_compute_unit(subtractor)
    system.add_compute_unit(dnn)
    system.set_pixel_array_geometry(_ROWS, _COLS, pitch=2.5 * units.um)

    mapping = {"Input": "PixelArray", "Downsample": "DownsamplePE",
               "FrameSubtract": "SubtractPE", "RoiDNN": "DNNArray"}
    return Design(stages, system, mapping)


def run_edgaze(config: UseCaseConfig) -> EnergyReport:
    """Simulate one Ed-Gaze configuration at the 30 FPS target."""
    return run_design(build_edgaze(config),
                      SimOptions(frame_rate=FRAME_RATE)).unwrap()


def edgaze_configs() -> List[UseCaseConfig]:
    """The Fig. 9b grid: {2D-In, 2D-Off, 3D-In, 3D-In-STT} x {130, 65} nm."""
    return [UseCaseConfig(placement, node)
            for node in (130, 65)
            for placement in ("2D-In", "2D-Off", "3D-In", "3D-In-STT")]


def edgaze_space():
    """The Fig. 9b grid as a parameter space for the exploration engine.

    Enumerates the same points, in the same order, as
    :func:`edgaze_configs`; the axis names match the registered
    ``"edgaze"`` use-case builder's parameters.
    """
    from repro.explore.space import choice, product
    return product(choice("cis_node", [130, 65]),
                   choice("placement",
                          ["2D-In", "2D-Off", "3D-In", "3D-In-STT"]))
