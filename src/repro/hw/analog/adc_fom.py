"""Walden figure-of-merit survey for ADC energy estimation.

Non-linear A-Cells (ADCs, comparators) mix dynamic, static, and digital
sub-circuits, so CamJ estimates their energy from the empirical Walden FoM
survey [53] instead of analytical formulas (Eq. 12): given the ADC's
sampling rate, use the *median* energy-per-conversion among surveyed
converters at that rate.

The embedded dataset is a synthetic reconstruction of the survey's envelope:
the Walden FoM of published converters is roughly flat (tens of fJ per
conversion-step) below a corner sampling rate around 100 MS/s and rises
roughly linearly with the rate above the corner.  Points are spread
deterministically around that envelope so median lookups behave like they
would against the real scatter plot.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Sequence

from repro import units
from repro.columns import _is_column
from repro.exceptions import ConfigurationError

#: Walden FoM floor below the corner frequency (J per conversion-step).
_FOM_FLOOR = 15.0 * units.fJ
#: Corner sampling rate where FoM starts degrading.
_CORNER_RATE = 100.0 * units.MHz


class FomPoint(NamedTuple):
    """One surveyed converter: sampling rate (Hz), FoM (J/conversion-step)."""

    sample_rate: float
    fom: float


def _envelope(sample_rate: float) -> float:
    """Median Walden FoM trend at a sampling rate."""
    return _FOM_FLOOR * max(1.0, sample_rate / _CORNER_RATE)


def _build_survey() -> tuple:
    """Deterministically scatter survey points around the envelope.

    Sampling rates span 1 kS/s to 10 GS/s (log-uniform); each decade holds a
    fixed number of designs whose FoM spreads multiplicatively around the
    envelope, mimicking the order-of-magnitude scatter of the real survey.
    """
    points = []
    decades = range(3, 11)  # 1e3 .. 1e10 S/s
    per_decade = 16
    for decade in decades:
        for i in range(per_decade):
            fraction = i / per_decade
            rate = 10.0 ** (decade + fraction)
            # Deterministic pseudo-scatter in [-1, 1], multiplicative spread
            # of about 0.3x .. 3x around the envelope median.
            phase = math.sin(12.9898 * (decade + fraction) + 4.1414 * i)
            spread = 3.0 ** phase
            points.append(FomPoint(sample_rate=rate, fom=_envelope(rate) * spread))
    return tuple(points)


FOM_SURVEY: Sequence[FomPoint] = _build_survey()


#: ``math.log10`` of each survey rate and each survey FoM, in survey order.
_SURVEY_LOG_RATES = tuple(math.log10(point.sample_rate)
                          for point in FOM_SURVEY)
_SURVEY_FOMS = tuple(point.fom for point in FOM_SURVEY)


def _median(values) -> float:
    ordered = sorted(values)
    count = len(ordered)
    middle = count // 2
    if count % 2:
        return ordered[middle]
    return 0.5 * (ordered[middle - 1] + ordered[middle])


def walden_fom(sample_rate: float, window_decades: float = 0.5) -> float:
    """Median Walden FoM (J/conversion-step) near ``sample_rate``.

    Looks up all surveyed converters within ``window_decades`` of the rate
    (in log space) and returns their median FoM; falls back to the envelope
    trend when the window is empty (rates beyond the survey range).
    """
    if sample_rate <= 0:
        raise ConfigurationError(
            f"sample_rate must be positive, got {sample_rate}")
    log_rate = math.log10(sample_rate)
    nearby = [fom for survey_log, fom in zip(_SURVEY_LOG_RATES, _SURVEY_FOMS)
              if abs(survey_log - log_rate) <= window_decades]
    if not nearby:
        return _envelope(sample_rate)
    return _median(nearby)


def adc_energy_per_conversion(sample_rate: float, bits: int) -> float:
    """Median energy of one full conversion: ``FoM * 2**bits`` (Eq. 12).

    ``sample_rate`` may be a per-point column (:mod:`repro.columns`).
    """
    if bits < 1:
        raise ConfigurationError(f"ADC resolution must be >= 1 bit, got {bits}")
    lookup = _walden_fom_batch if _is_column(sample_rate) else walden_fom
    return lookup(sample_rate) * (2 ** bits)


def _walden_fom_batch(sample_rates, window_decades: float = 0.5):
    """:func:`walden_fom` over a column of rates, batched.

    Bit-identical per element: the log-space window is evaluated against
    the same ``math.log10`` values the scalar lookup compares, and each
    distinct window takes the same :func:`_median` over the same survey
    slice.  Survey rates are ascending, so every window is a contiguous
    slice identified by its (start, length) pair — points sharing a
    window share one median computation.
    """
    import numpy as np

    rates = np.asarray(sample_rates, dtype=float)
    if rates.size == 0:
        return np.zeros(0)
    if not bool((rates > 0).all()):
        raise ConfigurationError("sample rates must all be positive")
    # math.log10 per point, not np.log10: the window membership below
    # must see the very floats the scalar path compares (np.log10 is
    # not bit-identical to math.log10 on this platform).
    point_logs = np.array([math.log10(rate) for rate in rates.tolist()])
    survey_logs = np.array(_SURVEY_LOG_RATES)
    # The survey is ascending with strictly distinct log rates, so each
    # point's window is the contiguous run where the scalar predicate
    # abs(survey_log - point_log) <= window holds.  Two searchsorted
    # calls seed the run bounds from the rounded point_log -/+ window;
    # because that one rounding can disagree with the predicate (which
    # subtracts first) only within ~1 ulp — far below the survey's
    # log-rate spacing — each bound is off by at most one index, and
    # the exact-predicate nudges below (two steps, for margin) restore
    # bit-identical membership without the dense N x survey mask.
    size = survey_logs.size
    first = np.searchsorted(survey_logs, point_logs - window_decades,
                            side="left")
    last = np.searchsorted(survey_logs, point_logs + window_decades,
                           side="right")

    def _in_window(indices):
        probe = survey_logs[np.clip(indices, 0, size - 1)]
        return np.abs(probe - point_logs) <= window_decades

    for _ in range(2):
        prev = first - 1
        first = np.where((prev >= 0) & _in_window(prev), prev, first)
    for _ in range(2):
        first = np.where((first < size) & ~_in_window(first),
                         first + 1, first)
    for _ in range(2):
        last = np.where((last < size) & _in_window(last), last + 1, last)
    for _ in range(2):
        prev = last - 1
        last = np.where((prev >= 0) & ~_in_window(prev), prev, last)
    counts = np.maximum(last - first, 0)
    out = np.empty(rates.shape)
    empty = counts == 0
    if bool(empty.any()):
        out[empty] = _FOM_FLOOR * np.maximum(1.0,
                                             rates[empty] / _CORNER_RATE)
    filled = ~empty
    if bool(filled.any()):
        stride = len(_SURVEY_FOMS) + 1
        keys = first[filled] * stride + counts[filled]
        unique_keys, inverse = np.unique(keys, return_inverse=True)
        medians = np.empty(len(unique_keys))
        for position, key in enumerate(unique_keys.tolist()):
            start, length = divmod(int(key), stride)
            medians[position] = _median(
                list(_SURVEY_FOMS[start:start + length]))
        out[filled] = medians[inverse]
    return out
