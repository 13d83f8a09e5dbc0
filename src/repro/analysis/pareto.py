"""Pareto analysis over design candidates (two-objective shim).

The Sec. 6 explorations trade *energy per frame* against *power density*
(Table 3 shows they conflict: 3D stacking cuts energy but concentrates
power).  :class:`DesignPoint` keeps that fixed two-objective view for
existing call sites; dominance and frontier extraction delegate to the
N-objective machinery in :mod:`repro.explore.engine`, which is what new
code should use directly (any number of objectives, named metrics,
infeasible-point bookkeeping, JSON round-tripping).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

from repro import units
from repro.area.model import power_density
from repro.energy.report import EnergyReport
from repro.exceptions import ConfigurationError
from repro.explore.engine import dominance_ranks as _dominance_ranks
from repro.explore.engine import dominates as _dominates
from repro.hw.chip import SensorSystem

#: Both legacy objectives minimize.
_GOALS = ("min", "min")


@dataclass(frozen=True)
class DesignPoint:
    """One candidate design with its two competing objectives."""

    label: str
    energy_per_frame: float
    power_density: float

    def _vector(self) -> tuple:
        return (self.energy_per_frame, self.power_density)

    def dominates(self, other: "DesignPoint") -> bool:
        """Strict Pareto dominance: no worse on both, better on one.

        Ties (equal on both objectives) dominate in neither direction,
        and NaN-valued points are incomparable — shared semantics with
        :func:`repro.explore.engine.dominates`.
        """
        return _dominates(self._vector(), other._vector(), _GOALS)

    def describe(self) -> str:
        density = self.power_density / (units.mW / units.mm2)
        return (f"{self.label:<20} "
                f"{units.format_energy(self.energy_per_frame):>10}/frame  "
                f"{density:6.2f} mW/mm^2")


def design_point(label: str, system: SensorSystem,
                 report: EnergyReport) -> DesignPoint:
    """Package one simulated design as a Pareto candidate."""
    return DesignPoint(label=label,
                       energy_per_frame=report.total_energy,
                       power_density=power_density(system, report))


def pareto_front(points: Sequence[DesignPoint]) -> List[DesignPoint]:
    """The non-dominated subset, in deterministic order.

    Sorted by energy, then power density, then label, so the returned
    frontier is stable across runs and input permutations (ties included:
    value-identical candidates are all non-dominated and all kept).
    """
    if not points:
        raise ConfigurationError("pareto front needs at least one point")
    ranks = _dominance_ranks([p._vector() for p in points], _GOALS)
    front = [point for point, rank in zip(points, ranks) if rank == 0]
    return sorted(front, key=lambda p: (p.energy_per_frame,
                                        p.power_density, p.label))


def dominated_points(points: Sequence[DesignPoint]) -> List[DesignPoint]:
    """The candidates a designer can discard outright.

    A point is discardable only when some other candidate strictly
    dominates it; NaN-valued points are incomparable, so they appear
    neither here nor on the frontier.
    """
    if not points:
        raise ConfigurationError("pareto front needs at least one point")
    ranks = _dominance_ranks([p._vector() for p in points], _GOALS)
    return [point for point, rank in zip(points, ranks) if rank]
