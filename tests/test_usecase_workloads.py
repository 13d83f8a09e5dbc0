"""Workload-parameter exactness: the Sec. 6 numbers as the paper states them."""

import pytest

from repro import units
from repro.sw.dag import StageGraph
from repro.usecases import UseCaseConfig
from repro.usecases.edgaze import DNN_MACS, ROI_FRACTION, edgaze_stages
from repro.usecases.edgaze import build_edgaze
from repro.usecases.rhythmic import (
    NUM_PE_LANES,
    ROI_COMPRESSION,
    TOTAL_OPS,
    build_rhythmic,
)


class TestRhythmicWorkload:
    def test_1280x720_pixel_array(self):
        design = build_rhythmic(UseCaseConfig("2D-In", 65))
        stages, system = design.stages, design.system
        assert stages[0].output_pixels == 1280 * 720
        assert system.pixel_array_dims == (720, 1280)

    def test_paper_op_count(self):
        """~7.4e6 arithmetic operations per frame (Sec. 6.1)."""
        stages = build_rhythmic(UseCaseConfig("2D-In", 65)).stages
        encode = stages[1]
        assert encode.total_ops == pytest.approx(TOTAL_OPS, rel=1e-6)
        assert TOTAL_OPS == 7.4e6

    def test_roi_halves_output(self):
        """'reduces the image size by 50%' (Sec. 6.1)."""
        stages = build_rhythmic(UseCaseConfig("2D-In", 65)).stages
        encode = stages[1]
        assert ROI_COMPRESSION == 0.5
        assert encode.output_bytes == pytest.approx(0.5 * 1280 * 720)

    def test_fig8a_structures(self):
        """Fig. 8a: ADC 1x1280, FIFO 1x2560, 16 digital PE lanes."""
        system = build_rhythmic(UseCaseConfig("2D-In", 65)).system
        assert system.find_unit("ADCArray").num_components == 1280
        assert system.find_unit("PixelFIFO").capacity_pixels == 2560
        assert NUM_PE_LANES == 16

    def test_off_chip_placement_moves_units(self):
        system = build_rhythmic(UseCaseConfig("2D-Off", 65)).system
        assert system.find_unit("CompareSamplePE").layer == "off_chip"
        assert system.find_unit("PixelFIFO").layer == "off_chip"

    def test_3d_placement_uses_compute_layer(self):
        system = build_rhythmic(UseCaseConfig("3D-In", 130)).system
        assert system.find_unit("CompareSamplePE").layer == "compute"
        assert system.layers["compute"].node_nm == 22
        assert system.layers["sensor"].node_nm == 130


class TestEdGazeWorkload:
    def test_640x400_pixel_array(self):
        stages = edgaze_stages()
        assert stages[0].output_pixels == 640 * 400

    def test_paper_mac_count(self):
        """~5.76e7 MAC operations per frame (Sec. 6.1)."""
        stages = edgaze_stages()
        dnn = stages[-1]
        assert dnn.num_macs == pytest.approx(DNN_MACS, rel=1e-6)
        assert DNN_MACS == 5.76e7

    def test_roi_is_75_percent_of_frame(self):
        """'reduces the image size by 25%' => ROI ships 75 % of it."""
        stages = edgaze_stages()
        dnn = stages[-1]
        full_frame_bytes = 640 * 400
        assert ROI_FRACTION == 0.75
        assert dnn.output_bytes == pytest.approx(
            ROI_FRACTION * full_frame_bytes)

    def test_fig8b_frame_buffer_holds_downsampled_frame(self):
        """Fig. 8b: the frame buffer stores the 2x2-downsampled frame."""
        system = build_edgaze(UseCaseConfig("2D-In", 65)).system
        frame_buffer = system.find_unit("FrameBuffer")
        assert frame_buffer.capacity_bytes == 200 * 320

    def test_fig8b_dnn_pe_grid(self):
        """Fig. 8b: Digital PE 3 is a 16x16 grid."""
        system = build_edgaze(UseCaseConfig("2D-In", 65)).system
        assert system.find_unit("DNNArray").dimensions == (16, 16)

    def test_event_map_is_binary(self):
        stages = edgaze_stages()
        subtract = stages[2]
        assert subtract.bits_per_pixel == 1

    def test_dag_is_linear_chain(self):
        graph = StageGraph(edgaze_stages())
        assert [s.name for s in graph.topological_order] == \
            ["Input", "Downsample", "FrameSubtract", "RoiDNN"]

    def test_stt_config_swaps_both_buffers(self):
        sram_sys = build_edgaze(UseCaseConfig("3D-In", 65)).system
        stt_sys = build_edgaze(UseCaseConfig("3D-In-STT", 65)).system
        for buffer_name in ("FrameBuffer", "DNNBuffer"):
            sram_leak = sram_sys.find_unit(buffer_name).leakage_power
            stt_leak = stt_sys.find_unit(buffer_name).leakage_power
            assert stt_leak < 0.05 * sram_leak, buffer_name
