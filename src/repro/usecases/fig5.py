"""The paper's running example (Fig. 5 / Fig. 6).

A 32x32 pixel array with 2x2 charge-domain binning, column ADCs, a line
buffer, and a 3x3 digital edge-detection unit.  Shared by the quickstart
example, the test fixtures, and the Fig. 6 timing tests.
"""

from __future__ import annotations

from typing import Dict, List

from repro import units
from repro.api.design import Design
from repro.api.result import SimOptions
from repro.api.simulator import run_design
from repro.energy.report import EnergyReport
from repro.hw.analog.array import AnalogArray
from repro.hw.analog.components import ActivePixelSensor, ColumnADC
from repro.hw.chip import SensorSystem
from repro.hw.digital.compute import ComputeUnit
from repro.hw.digital.memory import LineBuffer
from repro.hw.layer import Layer, SENSOR_LAYER
from repro.sw.stage import PixelInput, ProcessStage

FIG5_MAPPING: Dict[str, str] = {
    "Input": "PixelArray",
    "Binning": "PixelArray",
    "EdgeDetection": "EdgeUnit",
}


def build_fig5_stages() -> List:
    """The binning + edge-detection DAG of Fig. 5's ``camj_sw_config``."""
    source = PixelInput((32, 32, 1), name="Input")
    binning = ProcessStage("Binning", input_size=(32, 32, 1),
                           kernel=(2, 2, 1), stride=(2, 2, 1))
    edge = ProcessStage("EdgeDetection", input_size=(16, 16, 1),
                        kernel=(3, 3, 1), stride=(1, 1, 1), padding="same")
    binning.set_input_stage(source)
    edge.set_input_stage(binning)
    return [source, binning, edge]


def build_fig5_system() -> SensorSystem:
    """The hardware of Fig. 5's ``camj_hw_config``."""
    system = SensorSystem("Fig5", layers=[Layer(SENSOR_LAYER, 65)])
    pixel_array = AnalogArray("PixelArray", num_input=(1, 32),
                              num_output=(1, 16))
    pixel_array.add_component(
        ActivePixelSensor("BinningPixel", num_shared_pixels=4), (16, 16))
    adc_array = AnalogArray("ADCArray", num_input=(1, 16),
                            num_output=(1, 16))
    adc_array.add_component(ColumnADC(bits=10), (1, 16))
    line_buffer = LineBuffer("LineBuffer", size=(3, 16),
                             write_energy_per_word=0.3 * units.pJ,
                             read_energy_per_word=0.3 * units.pJ)
    edge_unit = ComputeUnit("EdgeUnit",
                            input_pixels_per_cycle=(1, 3, 1),
                            output_pixels_per_cycle=(1, 1, 1),
                            energy_per_cycle=3.0 * units.pJ,
                            num_stages=2)
    pixel_array.set_output(adc_array)
    adc_array.set_output(line_buffer)
    edge_unit.set_input(line_buffer)
    edge_unit.set_sink()
    system.add_analog_array(pixel_array)
    system.add_analog_array(adc_array)
    system.add_memory(line_buffer)
    system.add_compute_unit(edge_unit)
    system.set_pixel_array_geometry(32, 32)
    return system


def build_fig5_design() -> Design:
    """The complete Fig. 5 scenario as a first-class :class:`Design`."""
    return Design(build_fig5_stages(), build_fig5_system(),
                  dict(FIG5_MAPPING), name="Fig5")


def run_fig5(frame_rate: float = 30.0,
             cycle_accurate: bool = False) -> EnergyReport:
    """Simulate the Fig. 5 example at an FPS target."""
    return run_design(build_fig5_design(),
                      SimOptions(frame_rate=frame_rate,
                                 cycle_accurate=cycle_accurate)).unwrap()
