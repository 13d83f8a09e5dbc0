"""Tests for the CIS trend survey (Fig. 1 / Fig. 3)."""

import pytest

from repro.exceptions import ConfigurationError
from repro.survey import (
    CIS_NODE_POINTS,
    PIXEL_PITCH_POINTS,
    SURVEY_COUNTS,
    cis_node_trend,
    irds_node,
    node_gap_by_year,
    percentages_by_year,
    pixel_pitch_trend,
)


class TestFig1Counts:
    def test_covers_2000_to_2022(self):
        years = [c.year for c in SURVEY_COUNTS]
        assert years == list(range(2000, 2023))

    def test_counts_non_negative_and_consistent(self):
        for counts in SURVEY_COUNTS:
            assert counts.imaging >= 0
            assert counts.computational >= 0
            assert counts.stacked_computational >= 0
            assert counts.total > 0

    def test_percentages_sum_to_100(self):
        for row in percentages_by_year():
            total = (row["imaging"] + row["computational"]
                     + row["stacked_computational"])
            assert total == pytest.approx(100.0)

    def test_computational_share_rises(self):
        """The paper's headline trend: increasingly computational CIS."""
        rows = percentages_by_year()
        early = sum(r["computational"] + r["stacked_computational"]
                    for r in rows[:5]) / 5
        late = sum(r["computational"] + r["stacked_computational"]
                   for r in rows[-5:]) / 5
        assert late > 2 * early
        first, last = rows[0], rows[-1]
        assert (last["computational"] + last["stacked_computational"]
                > first["computational"] + first["stacked_computational"])

    def test_stacked_designs_emerge_late(self):
        rows = percentages_by_year()
        assert all(r["stacked_computational"] == 0 for r in rows[:10])
        assert rows[-1]["stacked_computational"] > 5


class TestFig3Scaling:
    def test_scatter_datasets_nontrivial(self):
        assert len(CIS_NODE_POINTS) > 50
        assert len(PIXEL_PITCH_POINTS) > 50

    def test_cis_node_shrinks_slowly(self):
        """CIS halving period ~9 years, far slower than CMOS's ~2 years."""
        slope, _ = cis_node_trend()
        halving_years = -1.0 / slope
        assert 6 < halving_years < 14

    def test_node_tracks_pixel_pitch(self):
        """The paper: CIS node slope follows the pixel-size slope."""
        node_slope, _ = cis_node_trend()
        pitch_slope, _ = pixel_pitch_trend()
        assert node_slope == pytest.approx(pitch_slope, rel=0.25)
        assert abs(node_slope - pitch_slope) < 0.25 * abs(node_slope)

    def test_irds_lookup(self):
        assert irds_node(2000) == 180
        assert irds_node(2001) == 180
        assert irds_node(2022) == 3

    def test_irds_before_roadmap_rejected(self):
        with pytest.raises(ConfigurationError):
            irds_node(1995)

    def test_gap_widens_over_time(self):
        """CIS node lags IRDS with an increasing gap after ~2000."""
        rows = node_gap_by_year()
        assert rows[0]["gap_ratio"] < rows[-1]["gap_ratio"]
        assert rows[-1]["gap_ratio"] > 10

    def test_cis_always_behind_irds_after_2004(self):
        for row in node_gap_by_year():
            if row["year"] >= 2004:
                assert row["cis_node_nm"] > row["irds_node_nm"]
