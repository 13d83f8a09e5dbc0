"""Tests for the Sec. 6 use cases: every Finding's shape is asserted here."""

import pytest

from repro import units
from repro.area import power_density
from repro.area.model import CPU_POWER_DENSITY, GPU_POWER_DENSITY
from repro.energy.report import Category
from repro.exceptions import ConfigurationError
from repro.sim.simulator import simulate
from repro.usecases import (
    UseCaseConfig,
    build_edgaze,
    build_edgaze_mixed,
    build_rhythmic,
    edgaze_configs,
    rhythmic_configs,
    run_edgaze,
    run_edgaze_mixed,
    run_rhythmic,
)


@pytest.fixture(scope="module")
def rhythmic():
    return {cfg.label: run_rhythmic(cfg) for cfg in rhythmic_configs()}


@pytest.fixture(scope="module")
def edgaze():
    return {cfg.label: run_edgaze(cfg) for cfg in edgaze_configs()}


@pytest.fixture(scope="module")
def edgaze_mixed():
    return {node: run_edgaze_mixed(node) for node in (130, 65)}


@pytest.fixture(scope="module")
def densities():
    """Table 3's grid: power density per (workload, node, placement)."""
    grid = {}
    for workload, build, run in (("Rhythmic", build_rhythmic, run_rhythmic),
                                 ("Ed-Gaze", build_edgaze, run_edgaze)):
        for node in (130, 65):
            for placement in ("2D-Off", "2D-In", "3D-In"):
                config = UseCaseConfig(placement, node)
                system = build(config).system
                grid[(workload, node, placement)] = power_density(
                    system, run(config))
    return grid


class TestConfigGrid:
    def test_rhythmic_grid(self):
        assert len(rhythmic_configs()) == 6

    def test_edgaze_grid(self):
        assert len(edgaze_configs()) == 8

    def test_invalid_placement_rejected(self):
        with pytest.raises(ConfigurationError):
            UseCaseConfig("4D-In", 65)

    def test_invalid_node_rejected(self):
        with pytest.raises(ConfigurationError):
            UseCaseConfig("2D-In", 90)

    def test_placement_properties(self):
        assert UseCaseConfig("2D-Off", 65).digital_node == 22
        assert UseCaseConfig("2D-In", 65).digital_node == 65
        assert UseCaseConfig("3D-In", 130).is_stacked
        assert UseCaseConfig("3D-In-STT", 130).uses_stt_ram


class TestFig9aRhythmic:
    """Finding 1, communication-dominant workload."""

    def test_in_sensor_beats_off_sensor(self, rhythmic):
        for node in (130, 65):
            assert (rhythmic[f"2D-In ({node}nm)"].total_energy
                    < rhythmic[f"2D-Off ({node}nm)"].total_energy)

    def test_savings_grow_with_newer_cis_node(self, rhythmic):
        """Paper: 14.5 % saving at 130 nm grows to 33.4 % at 65 nm."""

        def saving(node):
            off = rhythmic[f"2D-Off ({node}nm)"].total_energy
            inside = rhythmic[f"2D-In ({node}nm)"].total_energy
            return 1.0 - inside / off

        assert saving(65) > saving(130)
        assert 0.05 < saving(130) < 0.35
        assert 0.20 < saving(65) < 0.50

    def test_mipi_dominates_off_sensor(self, rhythmic):
        report = rhythmic["2D-Off (65nm)"]
        assert report.category_energy(Category.MIPI) \
            > 0.5 * report.total_energy

    def test_roi_halves_mipi_volume(self, rhythmic):
        off = rhythmic["2D-Off (65nm)"].category_energy(Category.MIPI)
        inside = rhythmic["2D-In (65nm)"].category_energy(Category.MIPI)
        assert inside == pytest.approx(off / 2, rel=0.01)

    def test_3d_beats_2d_in(self, rhythmic):
        """Paper: 3D integration saves ~15.8 % on average over 2D-In."""
        savings = []
        for node in (130, 65):
            base = rhythmic[f"2D-In ({node}nm)"].total_energy
            stacked = rhythmic[f"3D-In ({node}nm)"].total_energy
            savings.append(1.0 - stacked / base)
        average = sum(savings) / len(savings)
        assert 0.05 < average < 0.35
        assert all(saving > 0 for saving in savings)

    def test_utsv_cost_insignificant(self, rhythmic):
        report = rhythmic["3D-In (65nm)"]
        assert report.category_energy(Category.UTSV) \
            < 0.05 * report.total_energy

    def test_roi_compression_sets_the_crossover(self):
        """Ablation: in-sensor pays only while the encoder removes data.

        The 2D-In saving shrinks as the ROI stage keeps more of the
        frame, and turns negative when it keeps everything.
        """
        off = run_rhythmic(UseCaseConfig("2D-Off", 130)).total_energy
        savings = {}
        for compression in (0.25, 0.5, 0.75, 1.0):
            design = build_rhythmic(UseCaseConfig("2D-In", 130))
            design.stages[1].output_compression = compression
            report = simulate(design.stages, design.system, design.mapping,
                              frame_rate=30)
            savings[compression] = 1 - report.total_energy / off
        ordered = [savings[c] for c in sorted(savings)]
        assert ordered == sorted(ordered, reverse=True)
        assert savings[0.25] > 0
        assert savings[1.0] < 0


class TestFig9bEdGaze:
    """Finding 1/2, compute-dominant workload."""

    def test_in_sensor_loses_to_off_sensor(self, edgaze):
        for node in (130, 65):
            assert (edgaze[f"2D-In ({node}nm)"].total_energy
                    > edgaze[f"2D-Off ({node}nm)"].total_energy)

    def test_65nm_worse_than_130nm_in_sensor(self, edgaze):
        """The 65 nm leakage anomaly: newer CIS node, higher energy."""
        assert (edgaze["2D-In (65nm)"].total_energy
                > edgaze["2D-In (130nm)"].total_energy)

    def test_communication_light_off_sensor(self, edgaze):
        """Paper: comm is ~15 % of the off-sensor total."""
        report = edgaze["2D-Off (65nm)"]
        share = report.communication_energy / report.total_energy
        assert share < 0.45

    def test_memory_dominates_2d_in_65nm(self, edgaze):
        """Paper: memory is 71.3 % of the 2D-In 65 nm total."""
        report = edgaze["2D-In (65nm)"]
        share = report.category_energy(Category.MEM_D) / report.total_energy
        assert 0.55 < share < 0.90

    def test_3d_stacking_reduces_energy(self, edgaze):
        """Paper: 38.5 % average reduction from 3D stacking."""
        for node in (130, 65):
            base = edgaze[f"2D-In ({node}nm)"].total_energy
            stacked = edgaze[f"3D-In ({node}nm)"].total_energy
            assert stacked < base

    def test_memory_still_dominates_3d_in(self, edgaze):
        report = edgaze["3D-In (65nm)"]
        assert report.category_energy(Category.MEM_D) \
            > 0.4 * report.total_energy

    def test_stt_ram_slashes_3d_energy(self, edgaze):
        """Paper: STT-RAM cuts ~69 % off 3D-In by removing leakage."""
        for node in (130, 65):
            sram = edgaze[f"3D-In ({node}nm)"].total_energy
            stt = edgaze[f"3D-In-STT ({node}nm)"].total_energy
            assert 0.35 < 1.0 - stt / sram < 0.85

    def test_frame_buffer_never_gated(self):
        system = build_edgaze(UseCaseConfig("2D-In", 65)).system
        assert system.find_unit("FrameBuffer").duty_alpha == 1.0

    def test_65nm_anomaly_needs_the_ungated_buffer(self):
        """Ablation: 65 nm 2D-In loses to 130 nm only while the frame
        and DNN buffers cannot be power-gated (duty 1.0); at duty 0.1
        the newer node wins again."""

        def total(node, duty_alpha):
            design = build_edgaze(UseCaseConfig("2D-In", node))
            design.system.find_unit("FrameBuffer").duty_alpha = duty_alpha
            design.system.find_unit("DNNBuffer").duty_alpha = duty_alpha
            return simulate(design.stages, design.system, design.mapping,
                            frame_rate=30).total_energy

        assert total(65, 1.0) > total(130, 1.0)
        assert total(65, 0.1) < total(130, 0.1)


class TestFig11to13Mixed:
    """Finding 3, analog vs digital processing."""

    def test_mixed_beats_fully_digital(self, edgaze, edgaze_mixed):
        for node in (130, 65):
            digital = edgaze[f"2D-In ({node}nm)"].total_energy
            mixed = edgaze_mixed[node].total_energy
            assert mixed < digital

    def test_savings_bigger_at_65nm(self, edgaze, edgaze_mixed):
        """Paper: 38.8 % at 130 nm, 77.1 % at 65 nm (leaky SRAM removed)."""

        def saving(node):
            digital = edgaze[f"2D-In ({node}nm)"].total_energy
            return 1.0 - edgaze_mixed[node].total_energy / digital

        assert saving(65) > saving(130)
        assert saving(65) > 0.30

    def test_sen_drops_without_adcs(self, edgaze, edgaze_mixed):
        for node in (130, 65):
            digital_sen = edgaze[f"2D-In ({node}nm)"].category_energy(
                Category.SEN)
            mixed_sen = edgaze_mixed[node].category_energy(Category.SEN)
            assert mixed_sen < digital_sen

    def test_mem_d_shrinks_most_at_65nm(self, edgaze, edgaze_mixed):
        for node in (130, 65):
            digital = edgaze[f"2D-In ({node}nm)"].category_energy(
                Category.MEM_D)
            assert edgaze_mixed[node].category_energy(Category.MEM_D) \
                < digital
        digital = edgaze["2D-In (65nm)"].category_energy(Category.MEM_D)
        mixed = edgaze_mixed[65].category_energy(Category.MEM_D)
        assert mixed < 0.8 * digital

    def test_fig12_dnn_stage_dominates_after_mixing(self, edgaze_mixed):
        for node in (130, 65):
            stages = edgaze_mixed[node].by_stage()
            total = sum(stages.values())
            assert stages["RoiDNN"] > 0.6 * total

    def test_fig12_first_stages_dominate_before_mixing_at_65nm(self,
                                                               edgaze):
        stages = edgaze["2D-In (65nm)"].by_stage()
        first_two = (stages.get("Downsample", 0.0)
                     + stages.get("FrameSubtract", 0.0)
                     + stages.get("Input", 0.0))
        assert first_two > stages["RoiDNN"]

    def test_fig13_memory_down_compute_up(self, edgaze, edgaze_mixed):
        """First two stages: memory and sensing shrink, compute slightly
        grows (8-bit OpAmp precision, Eq. 6)."""

        def first_stages(report, *categories):
            return sum(e.energy for e in report.entries
                       if e.stage in ("Input", "Downsample", "FrameSubtract")
                       and e.category in categories)

        for node in (130, 65):
            digital = edgaze[f"2D-In ({node}nm)"]
            mixed = edgaze_mixed[node]
            assert first_stages(mixed, Category.MEM_D, Category.MEM_A) \
                < first_stages(digital, Category.MEM_D, Category.MEM_A)
            assert first_stages(mixed, Category.COMP_D, Category.COMP_A) \
                > first_stages(digital, Category.COMP_D, Category.COMP_A)
            assert first_stages(mixed, Category.SEN) \
                < first_stages(digital, Category.SEN)

    def test_analog_path_has_analog_entries(self, edgaze_mixed):
        report = edgaze_mixed[65]
        assert report.category_energy(Category.MEM_A) > 0
        assert report.category_energy(Category.COMP_A) > 0


class TestTable3PowerDensity:
    def test_all_densities_far_below_cpu_gpu(self, densities):
        """Sec. 6.2: three to four orders below CPU/GPU hotspots."""
        for density in densities.values():
            assert density < 0.05 * GPU_POWER_DENSITY
            assert density < 0.02 * CPU_POWER_DENSITY

    def test_rhythmic_density_insensitive_to_stacking(self, densities):
        """Paper: communication-dominant Rhythmic shows no significant
        density difference across variants."""
        ratio = (densities[("Rhythmic", 130, "3D-In")]
                 / densities[("Rhythmic", 130, "2D-Off")])
        assert 0.5 < ratio < 2.0
        at_130 = [densities[("Rhythmic", 130, placement)]
                  for placement in ("2D-Off", "2D-In", "3D-In")]
        assert max(at_130) < 4 * min(at_130)

    def test_edgaze_65nm_2d_in_density_highest(self, densities):
        """Paper Table 3 (65/22): 2D-In 2.24 beats 3D-In 0.70 because of
        65 nm leakage, and both exceed 2D-Off's 0.11."""
        grid = {placement: densities[("Ed-Gaze", 65, placement)]
                for placement in ("2D-Off", "2D-In", "3D-In")}
        assert grid["2D-In"] > grid["3D-In"] > grid["2D-Off"]
