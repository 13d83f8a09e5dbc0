"""Tests for the Fig. 6 pipeline-chart rendering."""

import pytest

from repro.sim.chart import pipeline_chart
from repro.usecases import UseCaseConfig
from repro.usecases.edgaze import build_edgaze
from repro.usecases.fig5 import (
    FIG5_MAPPING,
    build_fig5_stages,
    build_fig5_system,
)


@pytest.fixture
def fig5_chart():
    return pipeline_chart(build_fig5_stages(), build_fig5_system(),
                          dict(FIG5_MAPPING), frame_rate=30)


class TestChart:
    def test_header_carries_timing(self, fig5_chart):
        header = fig5_chart.splitlines()[0]
        assert "33.3 ms" in header
        assert "T_A" in header and "T_D" in header

    def test_three_analog_slots(self, fig5_chart):
        """Exposure + readout + ADC, the Fig. 6 arrangement."""
        lines = fig5_chart.splitlines()
        labels = [line.split("|")[0].strip() for line in lines[1:]]
        assert labels[:3] == ["Exposure", "PixelArray", "ADCArray"]

    def test_every_row_has_a_bar(self, fig5_chart):
        for line in fig5_chart.splitlines()[1:]:
            bar = line.split("|")[1]
            assert "#" in bar

    def test_analog_slots_tile_the_frame(self, fig5_chart):
        """The three analog bars are disjoint and in temporal order."""
        lines = fig5_chart.splitlines()[1:4]
        starts = [line.split("|")[1].index("#") for line in lines]
        assert starts == sorted(starts)
        assert len(set(starts)) == 3

    def test_digital_at_frame_end(self, fig5_chart):
        digital = [line for line in fig5_chart.splitlines()
                   if "EdgeDetection" in line][0]
        bar = digital.split("|")[1]
        assert bar.rstrip().endswith("#")

    def test_edgaze_chart_shows_all_stages(self):
        design = build_edgaze(UseCaseConfig("2D-In", 65))
        chart = pipeline_chart(design.stages, design.system, design.mapping,
                               frame_rate=30)
        for name in ("Downsample", "FrameSubtract", "RoiDNN"):
            assert name in chart

    def test_custom_exposure_slots(self):
        chart = pipeline_chart(build_fig5_stages(), build_fig5_system(),
                               dict(FIG5_MAPPING), frame_rate=30,
                               exposure_slots=2)
        assert chart.count("Exposure") == 2
