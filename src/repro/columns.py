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

import sys
from functools import reduce
from itertools import accumulate


def _left_fold(values):
    """``0 + v1 + v2 + ...``, added strictly left to right."""
    result = 0
    for result in accumulate(values, initial=0):
        pass
    return result


#: The model's one reduction: ``0 + v1 + v2 + ...``, added strictly left
#: to right, element-wise for columns.  Builtin ``sum`` compensates float
#: rounding on CPython >= 3.12 but not before, so the same design would
#: get different last bits on different interpreters; the left fold gives
#: the bits of the scalar formulas everywhere.  Before 3.12 ``sum`` *is*
#: this fold (and runs without allocating a float per step), so it serves
#: there.  Starts from int ``0``, so an empty reduction is ``0`` and
#: integer sums stay integers.
total = _left_fold if sys.version_info >= (3, 12) else sum


def element(value, index: int):
    """Point ``index`` of a column as a float, or the shared constant."""
    return float(value[index]) if _is_column(value) else value


def dense(value, size: int):
    """A column of ``size`` points from a column or one shared number."""
    if _is_column(value):
        return value
    import numpy
    return numpy.full(size, float(value))


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


def gather(column, rows):
    """The values of a list ``column`` at ``rows``, in that order; a
    ``range`` of step 1 is one slice."""
    if type(rows) is range and rows.step == 1:
        return column[rows.start:rows.stop]
    return list(map(column.__getitem__, rows))
