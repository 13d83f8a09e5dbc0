"""Tests for the three-layer stacked (IMX400-style) design."""

import pytest

from repro import units
from repro.area import estimate_area, layer_power_density
from repro.energy.report import Category
from repro.usecases.threelayer import (
    DRAM_LAYER,
    LOGIC_LAYER,
    build_three_layer,
    run_three_layer,
)


@pytest.fixture(scope="module")
def report():
    return run_three_layer()


class TestStructure:
    def test_three_on_chip_layers(self):
        system = build_three_layer().system
        assert set(system.layers) == {"sensor", DRAM_LAYER, LOGIC_LAYER}
        assert system.is_stacked

    def test_layers_use_heterogeneous_nodes(self):
        system = build_three_layer().system
        nodes = {layer.node_nm for layer in system.layers.values()}
        assert len(nodes) == 3

    def test_dram_on_its_own_layer(self):
        system = build_three_layer().system
        assert system.find_unit("FrameDRAM").layer == DRAM_LAYER


class TestEnergy:
    def test_every_layer_burns_energy(self, report):
        by_layer = report.by_layer()
        for layer in ("sensor", DRAM_LAYER, LOGIC_LAYER):
            assert by_layer.get(layer, 0.0) > 0, layer

    def test_utsv_crossings_billed_per_hop(self, report):
        """Pixel->DRAM->logic is two uTSV hops for the full frame."""
        utsv_entries = [e for e in report.entries
                        if e.category is Category.UTSV]
        assert utsv_entries, "expected uTSV crossings"
        frame_bytes = 1080 * 1920 * 10 / 8
        two_hops = 2 * frame_bytes * 1 * units.pJ
        pixel_edge = [e for e in utsv_entries if "Input" in e.name][0]
        assert pixel_edge.energy == pytest.approx(two_hops)

    def test_utsv_far_cheaper_than_mipi(self, report):
        assert (report.category_energy(Category.UTSV)
                < 0.2 * report.category_energy(Category.MIPI))

    def test_encoded_output_shrinks_mipi(self, report):
        """The encoder ships 25 % of the 1080p frame."""
        full_frame_bytes = 1080 * 1920
        mipi = report.category_energy(Category.MIPI)
        assert mipi < full_frame_bytes * 100 * units.pJ

    def test_burst_rate_feasible(self):
        """960 FPS burst capture fits the frame budget."""
        report = run_three_layer(burst_fps=960)
        assert report.digital_latency < report.frame_time

    def test_lower_fps_cheaper_power(self):
        slow = run_three_layer(burst_fps=240)
        fast = run_three_layer(burst_fps=960)
        assert slow.total_power < fast.total_power


class TestDensity:
    def test_footprint_is_pixel_array(self):
        system = build_three_layer().system
        areas = estimate_area(system)
        assert areas.footprint == pytest.approx(system.pixel_array_area)

    def test_sensor_layer_density_highest_at_burst_rate(self, report):
        """At 960 FPS the pixel/ADC readout dominates the power density."""
        system = build_three_layer().system
        densities = layer_power_density(system, report)
        assert densities["sensor"] > densities[LOGIC_LAYER]
        assert densities[DRAM_LAYER] > 0
