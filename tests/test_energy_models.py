"""Tests for the analog/digital/communication energy models (Eqs. 1-17)."""

import pytest

from repro import units
from repro.energy.analog_model import analog_energy, analog_usage
from repro.energy.comm_model import communication_energy, communication_volume
from repro.energy.digital_model import digital_energy
from repro.energy.report import Category
from repro.hw.analog.array import AnalogArray
from repro.hw.analog.components import (
    ActivePixelSensor,
    AnalogMAC,
    ColumnADC,
)
from repro.hw.chip import SensorSystem
from repro.hw.digital.compute import ComputeUnit
from repro.hw.digital.memory import FIFO
from repro.hw.layer import COMPUTE_LAYER, Layer, SENSOR_LAYER
from repro.sim.cycle_sim import simulate_digital
from repro.sim.mapping import Mapping
from repro.sw.dag import StageGraph
from repro.sw.stage import PixelInput, ProcessStage

from repro.usecases.fig5 import (
    FIG5_MAPPING,
    build_fig5_stages,
    build_fig5_system,
)


class TestAnalogUsage:
    def test_fig5_pixel_array_ops(self):
        """Binning: 1024 primitive adds / 4 per shared-pixel access = 256."""
        graph = StageGraph(build_fig5_stages())
        system = build_fig5_system()
        usages = {u.array.name: u
                  for u in analog_usage(graph, system,
                                        Mapping(FIG5_MAPPING))}
        assert usages["PixelArray"].ops == pytest.approx(256)

    def test_fig5_adc_ops_propagate(self):
        """The unmapped ADC array converts the 256 binned pixels."""
        graph = StageGraph(build_fig5_stages())
        system = build_fig5_system()
        usages = {u.array.name: u
                  for u in analog_usage(graph, system,
                                        Mapping(FIG5_MAPPING))}
        assert usages["ADCArray"].ops == pytest.approx(256)

    def test_stage_attribution(self):
        graph = StageGraph(build_fig5_stages())
        system = build_fig5_system()
        usages = {u.array.name: u
                  for u in analog_usage(graph, system,
                                        Mapping(FIG5_MAPPING))}
        assert usages["PixelArray"].stage_name == "Binning"

    def test_pixel_input_only_array(self):
        """Pure imaging: ops = pixel count."""
        source = PixelInput((32, 32, 1), name="Input")
        system = SensorSystem("S", layers=[Layer(SENSOR_LAYER, 65)])
        pixels = AnalogArray("Pixels")
        pixels.add_component(ActivePixelSensor(), (32, 32))
        system.add_analog_array(pixels)
        graph = StageGraph([source])
        usages = analog_usage(graph, system, Mapping({"Input": "Pixels"}))
        assert usages[0].ops == pytest.approx(1024)


class TestAnalogEnergy:
    def test_entries_tagged_with_category_and_layer(self):
        graph = StageGraph(build_fig5_stages())
        system = build_fig5_system()
        usages = analog_usage(graph, system, Mapping(FIG5_MAPPING))
        entries = analog_energy(usages, analog_stage_delay=5e-3)
        assert entries, "expected analog energy entries"
        assert all(e.category is Category.SEN for e in entries)
        assert all(e.layer == SENSOR_LAYER for e in entries)

    def test_compute_array_categorized_comp_a(self):
        source = PixelInput((8, 8, 1), name="Input")
        conv = ProcessStage("Conv", input_size=(8, 8, 1), kernel=(2, 2, 1),
                            stride=(2, 2, 1))
        conv.set_input_stage(source)
        system = SensorSystem("S", layers=[Layer(SENSOR_LAYER, 65)])
        pixels = AnalogArray("Pixels")
        pixels.add_component(ActivePixelSensor(), (8, 8))
        macs = AnalogArray("MACs")
        macs.add_component(AnalogMAC(kernel_volume=4), (1, 8))
        pixels.set_output(macs)
        system.add_analog_array(pixels)
        system.add_analog_array(macs)
        usages = analog_usage(StageGraph([source, conv]), system,
                              Mapping({"Input": "Pixels", "Conv": "MACs"}))
        entries = analog_energy(usages, analog_stage_delay=5e-3)
        categories = {e.name: e.category for e in entries}
        assert categories["MACs/AnalogMAC"] is Category.COMP_A
        assert categories["Pixels/APS"] is Category.SEN

    def test_energy_scales_with_resolution(self):
        """A larger pixel array burns proportionally more sensing energy."""

        def build(n):
            source = PixelInput((n, n, 1), name="Input")
            system = SensorSystem("S", layers=[Layer(SENSOR_LAYER, 65)])
            pixels = AnalogArray("Pixels")
            pixels.add_component(ActivePixelSensor(), (n, n))
            system.add_analog_array(pixels)
            graph = StageGraph([source])
            usages = analog_usage(graph, system,
                                  Mapping({"Input": "Pixels"}))
            entries = analog_energy(usages, analog_stage_delay=5e-3)
            return sum(e.energy for e in entries)

        assert build(64) == pytest.approx(4 * build(32), rel=0.01)


class TestDigitalEnergy:
    def test_fig5_digital_entries(self):
        graph = StageGraph(build_fig5_stages())
        system = build_fig5_system()
        mapping = Mapping(FIG5_MAPPING)
        timeline = simulate_digital(graph, system, mapping)
        entries = digital_energy(system, timeline, frame_time=1 / 30)
        by_name = {e.name: e for e in entries}
        assert by_name["EdgeUnit"].category is Category.COMP_D
        # 257 cycles at 3 pJ
        assert by_name["EdgeUnit"].energy == pytest.approx(
            257 * 3 * units.pJ)
        # line buffer: 256 writes + 768 reads at 0.3 pJ/word
        assert by_name["LineBuffer"].energy == pytest.approx(
            (256 + 768) * 0.3 * units.pJ)

    def test_leakage_included(self):
        graph = StageGraph(build_fig5_stages())
        system = build_fig5_system()
        mapping = Mapping(FIG5_MAPPING)
        leaky = system.find_unit("LineBuffer")
        leaky.leakage_power = 1 * units.uW
        timeline = simulate_digital(graph, system, mapping)
        entries = digital_energy(system, timeline, frame_time=1 / 30)
        buf = [e for e in entries if e.name == "LineBuffer"][0]
        expected_leak = 1e-6 / 30
        assert buf.energy == pytest.approx(
            (256 + 768) * 0.3 * units.pJ + expected_leak)


def _cross_layer_setup(off_chip=False):
    """Input on the sensor layer, processing on another layer."""
    source = PixelInput((16, 16, 1), name="Input")
    stage = ProcessStage("Proc", input_size=(16, 16, 1), kernel=(1, 1, 1),
                         stride=(1, 1, 1))
    stage.set_input_stage(source)
    layers = [Layer(SENSOR_LAYER, 65)]
    target_layer = SENSOR_LAYER
    system = SensorSystem("S", layers=layers)
    if off_chip:
        system.add_offchip_host(22)
        target_layer = "off_chip"
    else:
        system.add_layer(Layer(COMPUTE_LAYER, 22))
        target_layer = COMPUTE_LAYER
    pixels = AnalogArray("Pixels")
    pixels.add_component(ActivePixelSensor(), (16, 16))
    adcs = AnalogArray("ADCs")
    adcs.add_component(ColumnADC(), (1, 16))
    pixels.set_output(adcs)
    fifo = FIFO("F", target_layer, size=(1, 64), write_energy_per_word=0,
                read_energy_per_word=0)
    adcs.set_output(fifo)
    unit = ComputeUnit("PE", target_layer, input_pixels_per_cycle=(1, 1),
                       output_pixels_per_cycle=(1, 1),
                       energy_per_cycle=1e-12)
    unit.set_input(fifo)
    unit.set_sink()
    system.add_analog_array(pixels)
    system.add_analog_array(adcs)
    system.add_memory(fifo)
    system.add_compute_unit(unit)
    graph = StageGraph([source, stage])
    mapping = Mapping({"Input": "Pixels", "Proc": "PE"})
    return graph, system, mapping


class TestCommunicationEnergy:
    def test_interlayer_crossing_uses_utsv(self):
        graph, system, mapping = _cross_layer_setup(off_chip=False)
        entries = communication_energy(graph, system, mapping)
        utsv = [e for e in entries if e.category is Category.UTSV]
        assert len(utsv) == 1
        assert utsv[0].energy == pytest.approx(256 * 1 * units.pJ)

    def test_offchip_crossing_uses_mipi(self):
        graph, system, mapping = _cross_layer_setup(off_chip=True)
        entries = communication_energy(graph, system, mapping)
        mipi = [e for e in entries if e.category is Category.MIPI]
        # Only the sensor->SoC hop: the sink already sits off-chip.
        assert len(mipi) == 1
        assert mipi[0].energy == pytest.approx(256 * 100 * units.pJ)

    def test_onchip_sink_ships_result_over_mipi(self):
        graph, system, mapping = _cross_layer_setup(off_chip=False)
        entries = communication_energy(graph, system, mapping)
        mipi = [e for e in entries if e.category is Category.MIPI]
        assert len(mipi) == 1
        assert "host" in mipi[0].name

    def test_mipi_dominates_utsv(self):
        """100 pJ/B vs 1 pJ/B: off-chip is two orders costlier."""
        graph_in, system_in, mapping_in = _cross_layer_setup(off_chip=False)
        graph_off, system_off, mapping_off = _cross_layer_setup(off_chip=True)
        utsv_energy = sum(
            e.energy for e in communication_energy(graph_in, system_in,
                                                   mapping_in)
            if e.category is Category.UTSV)
        mipi_energy = sum(
            e.energy for e in communication_energy(graph_off, system_off,
                                                   mapping_off)
            if e.category is Category.MIPI)
        assert mipi_energy == pytest.approx(100 * utsv_energy)

    def test_communication_volume(self):
        graph, system, mapping = _cross_layer_setup(off_chip=False)
        volumes = communication_volume(graph, system, mapping)
        assert volumes["utsv"] == pytest.approx(256)
        assert volumes["mipi"] == pytest.approx(256)

    def test_output_compression_shrinks_mipi(self):
        graph, system, mapping = _cross_layer_setup(off_chip=False)
        stage = graph.get("Proc")
        stage.output_compression = 0.5
        entries = communication_energy(graph, system, mapping)
        mipi = [e for e in entries if e.category is Category.MIPI][0]
        assert mipi.energy == pytest.approx(128 * 100 * units.pJ)
