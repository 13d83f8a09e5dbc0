"""Tests for the thermal coupling loop (the paper's declared future work)."""

import pytest

from repro import units
from repro.exceptions import ConfigurationError
from repro.noise import (
    FunctionalPixel,
    imaging_snr_at_operating_point,
    thermal_operating_point,
)
from repro.noise.thermal import AMBIENT_K
from repro.usecases import UseCaseConfig, run_edgaze
from repro.usecases.edgaze import build_edgaze


def _point(placement, node=65):
    config = UseCaseConfig(placement, node)
    system = build_edgaze(config).system
    report = run_edgaze(config)
    return system, report


class TestOperatingPoint:
    def test_temperature_rises_with_density(self):
        cool_system, cool_report = _point("2D-Off")
        hot_system, hot_report = _point("2D-In")
        cool = thermal_operating_point(cool_system, cool_report)
        hot = thermal_operating_point(hot_system, hot_report)
        assert hot.temperature_rise > cool.temperature_rise
        assert hot.temperature > AMBIENT_K

    def test_stacking_cools_the_hotspot(self):
        """Finding 2's flip side at 65 nm: 3D avoids the leaky 2D hotspot,
        yet still runs hotter than shipping pixels off-sensor."""
        flat_system, flat_report = _point("2D-In")
        stacked_system, stacked_report = _point("3D-In")
        off_system, off_report = _point("2D-Off")
        flat = thermal_operating_point(flat_system, flat_report)
        stacked = thermal_operating_point(stacked_system, stacked_report)
        off = thermal_operating_point(off_system, off_report)
        assert stacked.temperature_rise < flat.temperature_rise
        assert stacked.temperature_rise > off.temperature_rise

    def test_rise_linear_in_thermal_resistance(self):
        system, report = _point("2D-In")
        single = thermal_operating_point(system, report,
                                         thermal_resistance=1.0)
        double = thermal_operating_point(system, report,
                                         thermal_resistance=2.0)
        assert double.temperature_rise == pytest.approx(
            2 * single.temperature_rise)

    def test_rejects_bad_resistance(self):
        system, report = _point("2D-In")
        with pytest.raises(ConfigurationError):
            thermal_operating_point(system, report, thermal_resistance=0.0)

    def test_describe(self):
        system, report = _point("2D-In")
        text = thermal_operating_point(system, report).describe()
        assert "mW/mm^2" in text and "K" in text


class TestImagingImpact:
    def test_hot_architecture_hurts_low_light_snr(self):
        """The Sec. 6.2 conjecture, quantified: the dense 2D-In design
        images worse in the dark than the off-sensor baseline."""
        pixel = FunctionalPixel(dark_current_e_per_s=2000.0)
        cool_system, cool_report = _point("2D-Off")
        hot_system, hot_report = _point("2D-In")
        for seed in (3, 7):
            cool_snr = imaging_snr_at_operating_point(
                cool_system, cool_report, pixel, seed=seed)
            hot_snr = imaging_snr_at_operating_point(
                hot_system, hot_report, pixel, seed=seed)
            assert hot_snr < cool_snr, seed

    def test_bright_scenes_barely_affected(self):
        """Shot noise dominates in bright light; thermal rise is benign."""
        pixel = FunctionalPixel(dark_current_e_per_s=2000.0)
        cool_system, cool_report = _point("2D-Off")
        hot_system, hot_report = _point("2D-In")
        cool_snr = imaging_snr_at_operating_point(
            cool_system, cool_report, pixel,
            illumination_electrons=8000, seed=3)
        hot_snr = imaging_snr_at_operating_point(
            hot_system, hot_report, pixel,
            illumination_electrons=8000, seed=3)
        assert abs(cool_snr - hot_snr) < 1.0
