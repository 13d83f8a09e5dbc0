"""The validation harness: run all nine chips, compute MAPE and Pearson.

Reproduces Fig. 7a: across chips spanning several orders of magnitude of
energy per pixel, the paper reports a Pearson correlation coefficient of
0.9999 and a mean absolute percentage error of 7.5 %.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.columns import total
from repro.validation.base import ChipModel, ChipResult


@dataclass
class ValidationSummary:
    """Aggregate metrics over all validated chips."""

    results: List[ChipResult]

    @property
    def mean_absolute_percentage_error(self) -> float:
        if not self.results:
            return 0.0
        return total(r.absolute_percentage_error for r in self.results) \
            / len(self.results)

    @property
    def pearson_correlation(self) -> float:
        """Pearson r between estimated and reported energy per pixel."""
        estimated = [r.estimated_energy_per_pixel for r in self.results]
        reported = [r.reported_energy_per_pixel for r in self.results]
        return _pearson(estimated, reported)

    @property
    def energy_span_orders(self) -> float:
        """Orders of magnitude the reported energies span."""
        reported = [r.reported_energy_per_pixel for r in self.results]
        return math.log10(max(reported) / min(reported))

    def to_table(self) -> str:
        lines = ["Validation against Table 2 chips (Fig. 7a)"]
        lines.extend("  " + result.describe() for result in self.results)
        lines.append(f"  MAPE    {100 * self.mean_absolute_percentage_error:.1f}%"
                     f"   (paper: 7.5%)")
        lines.append(f"  Pearson {self.pearson_correlation:.4f}"
                     f"   (paper: 0.9999)")
        return "\n".join(lines)


def _pearson(xs: Sequence[float], ys: Sequence[float]) -> float:
    n = len(xs)
    if n < 2:
        raise ValueError("Pearson correlation needs at least two points")
    mean_x = total(xs) / n
    mean_y = total(ys) / n
    cov = total((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys))
    var_x = total((x - mean_x) ** 2 for x in xs)
    var_y = total((y - mean_y) ** 2 for y in ys)
    if var_x == 0 or var_y == 0:
        raise ValueError("Pearson correlation undefined for constant series")
    return cov / math.sqrt(var_x * var_y)


def run_chip(chip: ChipModel) -> ChipResult:
    """Simulate one chip and package the comparison."""
    return ChipResult(chip=chip, report=chip.simulate())


def run_validation(chips: Optional[Sequence[ChipModel]] = None
                   ) -> ValidationSummary:
    """Simulate every chip (default: all nine of Table 2)."""
    if chips is None:
        from repro.validation.chips import ALL_CHIPS
        chips = ALL_CHIPS
    return ValidationSummary(results=[run_chip(chip) for chip in chips])
