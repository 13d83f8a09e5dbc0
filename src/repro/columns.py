"""Helpers for quantities that are one float or a per-point column.

The energy model — entries, reports, leakage, power density, metrics —
is written once, over plain floats.  The explore fast path evaluates a
whole group of points at once by handing the same code NumPy arrays
with one element per point: arithmetic broadcasts unchanged and replays
the scalar float operations element-wise, so each element is
bit-identical to the scalar result of its point.  The few places that
branch or reduce go through these helpers.  Plain floats never touch
NumPy, so the scalar engine does not import it.
"""

from __future__ import annotations

from functools import reduce


def _is_column(value) -> bool:
    """Whether ``value`` is a per-point column rather than one number."""
    return not isinstance(value, (int, float))


def any_true(mask) -> bool:
    """Whether a comparison holds: for one number, or at any point."""
    if mask is True or mask is False:
        return mask
    return bool(mask.any())


def maximum(values):
    """The largest of ``values``, element-wise when any is a column.

    ``numpy.maximum`` selects and never rounds, so each element equals
    the scalar ``max`` of that point's values.
    """
    values = list(values)
    if not any(_is_column(value) for value in values):
        return max(values)
    import numpy
    return reduce(numpy.maximum, values)


def divide_or_zero(numerator, denominator):
    """``numerator / denominator``, or 0.0 where the denominator is 0."""
    if not _is_column(denominator):
        return numerator / denominator if denominator else 0.0
    import numpy
    quotient = numpy.zeros(denominator.shape)
    numpy.divide(numerator, denominator, out=quotient,
                 where=denominator != 0.0)
    return quotient
