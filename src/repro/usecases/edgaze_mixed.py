"""Mixed-signal Ed-Gaze (Fig. 10 / Figs. 11-13, Sec. 6.3).

The first two algorithm stages move into the analog domain: 2x2
downsampling happens as charge-domain pixel binning inside the pixel
array, the downsampled values live in an *analog* frame buffer (active
memories biased over the whole frame), and a switched-capacitor
subtractor plus comparator produce the digitized frame delta.  The ROI
DNN stays digital.

Per the paper's conservative sizing, every capacitor in the analog PE is
100 fF; despite this over-sizing, the analog path removes the column ADCs
and the leaky digital frame buffer, which is where the energy savings
come from (Finding 3).
"""

from __future__ import annotations

from repro import units
from repro.api.design import Design
from repro.api.result import SimOptions
from repro.api.simulator import run_design
from repro.energy.report import EnergyReport
from repro.hw.analog.array import AnalogArray
from repro.hw.analog.cells import DynamicCell, OpAmp
from repro.hw.analog.components import (
    ActiveAnalogMemory,
    ActivePixelSensor,
    AnalogComparator,
    AnalogComponent,
    CellUsage,
)
from repro.hw.analog.domain import SignalDomain
from repro.hw.chip import SensorSystem
from repro.hw.digital.compute import SystolicArray
from repro.hw.digital.memory import DoubleBuffer
from repro.hw.layer import Layer, SENSOR_LAYER
from repro.memlib import SRAMModel
from repro.tech import mac_energy
from repro.usecases.common import FRAME_RATE
from repro.usecases.edgaze import (
    _COLS,
    _DS_COLS,
    _DS_ROWS,
    _ROWS,
    edgaze_stages,
)

#: The paper conservatively sets every analog-PE capacitor to 100 fF.
ANALOG_CAPACITANCE = 100 * units.fF


def build_edgaze_mixed(cis_node: int) -> Design:
    """Build the Fig. 10 mixed-signal Ed-Gaze at one CIS node.

    Returns a :class:`Design`; read its parts as ``.stages``,
    ``.system`` and ``.mapping``.
    """
    stages = edgaze_stages()

    system = SensorSystem(f"Ed-Gaze 2D-In-Mixed ({cis_node}nm)",
                          layers=[Layer(SENSOR_LAYER, cis_node)])

    # 2x2 binning inside the pixel array (shared-FD charge binning).
    pixels = AnalogArray("PixelArray", SENSOR_LAYER,
                         num_input=(1, _COLS), num_output=(1, _DS_COLS))
    pixels.add_component(
        ActivePixelSensor(
            "BinningPixel",
            num_transistors=4,
            pd_capacitance=8 * units.fF,
            load_capacitance=1.0 * units.pF,
            voltage_swing=1.0,
            vdda=2.5,
            num_shared_pixels=4),
        (_DS_ROWS, _DS_COLS))
    # Analog frame buffer: one actively-held value per downsampled pixel.
    frame_buffer = AnalogArray("AnalogFrameBuffer", SENSOR_LAYER,
                               num_input=(1, _DS_COLS),
                               num_output=(1, _DS_COLS),
                               category="memory")
    frame_buffer.add_component(
        ActiveAnalogMemory(
            "HoldCell",
            bits=8,
            voltage_swing=1.0,
            capacitance=ANALOG_CAPACITANCE,
            hold_time=1.0 / FRAME_RATE,
            vdda=2.5),
        (_DS_ROWS, _DS_COLS))
    # Column-parallel analog PEs: switched-cap subtract + comparator.
    # Each subtraction cycles the two 100 fF branch capacitors through a
    # sample and a transfer phase (temporal = 2), and the OpAmp must keep
    # 8-bit settling accuracy: a closed-loop gain of 2 over ~6.2 time
    # constants of loop bandwidth (ln 2**9), i.e. an effective
    # gain-bandwidth multiplier of ~13 in Eq. 10 — the Eq. 6 precision
    # cost the paper highlights as the reason analog *compute* energy
    # slightly increases in the mixed design.
    # The OpAmp drives the two branch capacitors plus the comparator input
    # and wiring — four conservatively-sized 100 fF loads in total.
    subtractor_component = AnalogComponent(
        "SCSubtract", SignalDomain.VOLTAGE, SignalDomain.VOLTAGE,
        [
            CellUsage(DynamicCell(
                "SubCaps", [(ANALOG_CAPACITANCE, 1.0)] * 2), temporal=2),
            CellUsage(OpAmp("SubAmp",
                            load_capacitance=4 * ANALOG_CAPACITANCE,
                            gain=13.0, vdda=2.5)),
        ],
        num_input=(2, 1))
    subtractors = AnalogArray("AnalogSubtractArray", SENSOR_LAYER,
                              num_input=(1, _DS_COLS),
                              num_output=(1, _DS_COLS))
    subtractors.add_component(subtractor_component, (1, _DS_COLS))
    comparators = AnalogArray("DeltaComparatorArray", SENSOR_LAYER,
                              num_input=(1, _DS_COLS),
                              num_output=(1, _DS_COLS),
                              category="compute")
    comparators.add_component(AnalogComparator("DeltaCmp"), (1, _DS_COLS))
    pixels.set_output(frame_buffer)
    frame_buffer.set_output(subtractors)
    subtractors.set_output(comparators)

    # Digital side: unchanged ROI DNN at the CIS node (Fig. 10's "SRAM +
    # Digital PE 3").
    dnn_macro = SRAMModel(capacity_bytes=32 * units.KB, word_bits=64,
                          node_nm=cis_node)
    dnn_buffer = DoubleBuffer.from_model("DNNBuffer", dnn_macro,
                                         layer=SENSOR_LAYER,
                                         duty_alpha=1.0,
                                         num_read_ports=16,
                                         num_write_ports=16)
    comparators.set_output(dnn_buffer)
    dnn = SystolicArray("DNNArray", SENSOR_LAYER,
                        dimensions=(16, 16),
                        energy_per_mac=mac_energy(cis_node),
                        utilization=0.85,
                        clock_hz=200 * units.MHz,
                        area=dnn_macro.area)
    dnn.set_input(dnn_buffer)
    dnn.set_sink()

    system.add_analog_array(pixels)
    system.add_analog_array(frame_buffer)
    system.add_analog_array(subtractors)
    system.add_analog_array(comparators)
    system.add_memory(dnn_buffer)
    system.add_compute_unit(dnn)
    system.set_pixel_array_geometry(_ROWS, _COLS, pitch=2.5 * units.um)

    mapping = {"Input": "PixelArray", "Downsample": "PixelArray",
               "FrameSubtract": "AnalogSubtractArray",
               "RoiDNN": "DNNArray"}
    return Design(stages, system, mapping)


def run_edgaze_mixed(cis_node: int) -> EnergyReport:
    """Simulate the mixed-signal Ed-Gaze at one CIS node, 30 FPS."""
    return run_design(build_edgaze_mixed(cis_node),
                      SimOptions(frame_rate=FRAME_RATE)).unwrap()
