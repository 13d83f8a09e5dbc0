"""Delay estimation (Sec. 4.1, Fig. 6).

CamJ's insight: the CIS pipeline is designed to never stall, because pixels
arrive at a constant exposure rate.  In a balanced pipeline every analog
stage therefore shares the same delay, which can be *inferred* from the
frame-rate target instead of asked from the user:

    ``N_slots * T_A + T_D = T_FR = 1 / FPS``

where ``N_slots`` counts the analog pipeline stages — the exposure phase
plus every analog functional array on the signal path (the Fig. 6 example
has exposure + binned-pixel readout + ADC, hence ``3 * T_A + T_D``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Union

from repro.exceptions import ConfigurationError, TimingError

#: The exposure phase occupies one analog pipeline slot (Fig. 6).
EXPOSURE_SLOTS = 1


@dataclass(frozen=True)
class FrameTiming:
    """Timing facts of one frame under a frame-rate target (per-point
    columns when :func:`estimate_frame_timing` was given columns)."""

    frame_rate: float
    frame_time: float
    digital_latency: float
    num_analog_slots: int
    analog_stage_delay: float

    @property
    def analog_total_time(self) -> float:
        """Total time the analog domain occupies per frame."""
        return self.num_analog_slots * self.analog_stage_delay


def over_budget(frame_rate: float, frame_time: float,
                digital_latency: float) -> TimingError:
    """The error of a frame whose digital latency leaves no analog budget."""
    return TimingError(
        f"digital latency ({digital_latency:.3e} s) exceeds the frame "
        f"budget ({frame_time:.3e} s at {frame_rate:g} FPS); the "
        f"digital pipeline needs a re-design")


def estimate_frame_timing(frame_rate: Union[float, Sequence[float]],
                          digital_latency: float, num_analog_arrays: int,
                          exposure_slots: Union[int, Sequence[int]]
                          = EXPOSURE_SLOTS):
    """Infer the balanced analog stage delay ``T_A`` from the FPS target.

    Raises :class:`TimingError` when the digital domain alone exceeds the
    frame budget — the "re-design the accelerator" feedback of Sec. 3.3.

    ``frame_rate`` and ``exposure_slots`` may also be per-point columns
    (sequences with one entry per point; a single number is shared by
    every point).  Then a point over budget raises nothing: the result
    is ``(timing, over)``, where ``timing`` holds the columns of the
    points that fit, in order (``None`` when none does), and ``over``
    maps the position of every other point to its :class:`TimingError`.
    """
    columns = per_point(frame_rate) or per_point(exposure_slots)
    holds = bool
    if columns:
        import numpy
        holds = numpy.all
        frame_rate, exposure_slots = numpy.broadcast_arrays(
            numpy.asarray(frame_rate, dtype=float),
            numpy.asarray(exposure_slots))
    if not holds(frame_rate > 0):
        raise ConfigurationError(
            f"frame rate must be positive, got {frame_rate}")
    if digital_latency < 0:
        raise ConfigurationError(
            f"digital latency must be non-negative, got {digital_latency}")
    if num_analog_arrays < 0:
        raise ConfigurationError(
            f"analog array count must be non-negative, "
            f"got {num_analog_arrays}")
    if not holds(exposure_slots >= 0):
        raise ConfigurationError(
            f"exposure slots must be non-negative, got {exposure_slots}")
    frame_time = 1.0 / frame_rate
    analog_budget = frame_time - digital_latency
    slots = num_analog_arrays + exposure_slots
    fits = analog_budget > 0
    if not columns:
        if not fits:
            raise over_budget(frame_rate, frame_time, digital_latency)
        return FrameTiming(frame_rate=frame_rate, frame_time=frame_time,
                           digital_latency=digital_latency,
                           num_analog_slots=slots,
                           analog_stage_delay=(analog_budget / slots
                                               if slots else analog_budget))
    over = {row: over_budget(float(frame_rate[row]),
                             float(frame_time[row]), digital_latency)
            for row in numpy.flatnonzero(~fits).tolist()}
    if len(over) == len(fits):
        return None, over
    if over:
        frame_rate, frame_time, analog_budget, slots = (
            column[fits] for column in (frame_rate, frame_time,
                                        analog_budget, slots))
    # ``T_A`` is the whole budget where no slot shares it.
    delay = analog_budget / numpy.where(slots == 0, 1, slots)
    return FrameTiming(frame_rate=frame_rate, frame_time=frame_time,
                       digital_latency=digital_latency,
                       num_analog_slots=slots,
                       analog_stage_delay=delay), over


def per_point(value) -> bool:
    """Whether an operating-point input is a column, not one number."""
    return hasattr(value, "__len__")
