"""The ISSCC/IEDM CIS design survey behind Fig. 1 and Fig. 3.

The paper surveys every CIS paper published at ISSCC and IEDM between 2000
and 2022 and derives two motivating trends:

* **Fig. 1** — the share of *computational* CIS (and, within those,
  *stacked* computational CIS) grows steadily at the expense of pure
  imaging designs;
* **Fig. 3** — the CIS process node starts lagging the IRDS CMOS roadmap
  around Year 2000 with a widening gap, and its scaling slope tracks the
  pixel-pitch slope (pixels cannot shrink without losing photons).

The embedded dataset is a synthetic reconstruction of those survey
statistics: per-year design counts and (year, node) / (year, pitch) scatter
points whose regression slopes reproduce the published trends.
"""

from __future__ import annotations

import math
from typing import Dict, List, NamedTuple, Sequence, Tuple

from repro.columns import total
from repro.exceptions import ConfigurationError


class YearCounts(NamedTuple):
    """Surveyed CIS papers of one year, split by design style."""

    year: int
    imaging: int
    computational: int
    stacked_computational: int

    @property
    def total(self) -> int:
        return self.imaging + self.computational + self.stacked_computational


class DesignPoint(NamedTuple):
    """One surveyed design: publication year and a numeric attribute."""

    year: int
    value: float


def _build_counts() -> Tuple[YearCounts, ...]:
    """Per-year counts following Fig. 1's published shape.

    The computational share ramps from a few percent around 2000 to about
    half of all CIS papers by 2022, with stacked computational designs
    emerging around 2012 and growing to roughly a fifth of the total.
    """
    counts: List[YearCounts] = []
    for year in range(2000, 2023):
        progress = (year - 2000) / 22.0
        total = 9 + round(5 * progress) + (year % 3)
        computational_share = 0.05 + 0.45 * progress ** 1.2
        stacked_share = 0.0 if year < 2012 else 0.22 * ((year - 2012) / 10.0)
        stacked = round(total * stacked_share)
        computational = max(0, round(total * computational_share) - stacked)
        imaging = total - computational - stacked
        counts.append(YearCounts(year=year, imaging=imaging,
                                 computational=computational,
                                 stacked_computational=stacked))
    return tuple(counts)


def _scatter(year: int, index: int) -> float:
    """Deterministic multiplicative scatter in roughly [0.8, 1.25]."""
    phase = math.sin(7.31 * year + 13.7 * index)
    return 1.25 ** phase


def _build_node_points() -> Tuple[DesignPoint, ...]:
    """CIS process nodes by year: ~350 nm in 2000 easing to ~65 nm by 2022.

    The halving period is far slower than the CMOS roadmap's ~2 years;
    leading designs occasionally dip lower (stacked logic dies), trailing
    ones stay on very old nodes.
    """
    points: List[DesignPoint] = []
    for year in range(2000, 2023):
        trend = 350.0 * 0.5 ** ((year - 2000) / 9.0)
        for index in range(4):
            points.append(DesignPoint(year=year,
                                      value=trend * _scatter(year, index)))
    return tuple(points)


def _build_pitch_points() -> Tuple[DesignPoint, ...]:
    """Pixel pitches by year: ~7 um in 2000 easing to ~1.2 um by 2022.

    The same gentle halving period as the CIS node — the correlation the
    paper reads off Fig. 3.
    """
    points: List[DesignPoint] = []
    for year in range(2000, 2023):
        trend = 7.0 * 0.5 ** ((year - 2000) / 9.0)
        for index in range(3):
            points.append(DesignPoint(year=year,
                                      value=trend * _scatter(year, index + 7)))
    return tuple(points)


SURVEY_COUNTS: Sequence[YearCounts] = _build_counts()
CIS_NODE_POINTS: Sequence[DesignPoint] = _build_node_points()
PIXEL_PITCH_POINTS: Sequence[DesignPoint] = _build_pitch_points()

#: IRDS / ITRS CMOS logic node by year (nm), the blue line of Fig. 3.
IRDS_NODE_BY_YEAR: Dict[int, float] = {
    2000: 180, 2002: 130, 2004: 90, 2006: 65, 2008: 45, 2010: 32,
    2012: 22, 2014: 14, 2016: 10, 2018: 7, 2020: 5, 2022: 3,
}


def percentages_by_year() -> List[Dict[str, float]]:
    """The Fig. 1 series: normalized percentage per design style per year."""
    series = []
    for counts in SURVEY_COUNTS:
        total = counts.total
        series.append({
            "year": counts.year,
            "imaging": 100.0 * counts.imaging / total,
            "computational": 100.0 * counts.computational / total,
            "stacked_computational":
                100.0 * counts.stacked_computational / total,
        })
    return series


def _log_linear_slope(points: Sequence[DesignPoint]) -> Tuple[float, float]:
    """Least-squares fit of ``log2(value) = slope * year + intercept``.

    The slope's negative reciprocal is the halving period in years.
    """
    n = len(points)
    if n < 2:
        raise ConfigurationError("trend fit needs at least two points")
    xs = [p.year for p in points]
    ys = [math.log2(p.value) for p in points]
    mean_x = total(xs) / n
    mean_y = total(ys) / n
    cov = total((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys))
    var = total((x - mean_x) ** 2 for x in xs)
    slope = cov / var
    intercept = mean_y - slope * mean_x
    return slope, intercept


def cis_node_trend() -> Tuple[float, float]:
    """``(slope, intercept)`` of log2(CIS node) vs year."""
    return _log_linear_slope(CIS_NODE_POINTS)


def pixel_pitch_trend() -> Tuple[float, float]:
    """``(slope, intercept)`` of log2(pixel pitch) vs year."""
    return _log_linear_slope(PIXEL_PITCH_POINTS)


def irds_node(year: int) -> float:
    """IRDS CMOS node at ``year`` (step-wise, latest milestone)."""
    milestones = sorted(IRDS_NODE_BY_YEAR)
    if year < milestones[0]:
        raise ConfigurationError(
            f"IRDS roadmap starts at {milestones[0]}, got {year}")
    node = IRDS_NODE_BY_YEAR[milestones[0]]
    for milestone in milestones:
        if milestone <= year:
            node = IRDS_NODE_BY_YEAR[milestone]
    return node


def node_gap_by_year() -> List[Dict[str, float]]:
    """The Fig. 3 gap: fitted CIS node vs IRDS node, per roadmap year."""
    slope, intercept = cis_node_trend()
    rows = []
    for year in sorted(IRDS_NODE_BY_YEAR):
        fitted_cis = 2.0 ** (slope * year + intercept)
        rows.append({
            "year": year,
            "cis_node_nm": fitted_cis,
            "irds_node_nm": irds_node(year),
            "gap_ratio": fitted_cis / irds_node(year),
        })
    return rows
