"""Energy-bottleneck identification (the Fig. 4 feedback arrow).

Given an :class:`~repro.energy.report.EnergyReport`, rank components by
their energy share and point the designer at what to re-design first.
The exploration engine uses this to annotate every feasible point — in
particular the Pareto frontier — with its dominant energy consumer, so a
frontier is not just "these designs win" but "and here is what to attack
next on each of them".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro import units
from repro.columns import dense
from repro.energy.report import Category, EnergyReport
from repro.exceptions import ConfigurationError

#: Re-design hints per roll-up category.
_HINTS = {
    Category.SEN: ("consider lower-resolution readout, binning in the "
                   "pixel array, or a lower-energy ADC design point"),
    Category.COMP_A: ("revisit analog PE sizing: capacitor sizes follow "
                      "the kT/C limit of the target precision (Eq. 6)"),
    Category.MEM_A: ("shorten analog hold times or drop stored precision "
                     "to shrink hold-amp bias energy"),
    Category.COMP_D: ("move the unit to a newer process node (3D stack) "
                      "or reduce per-cycle energy via synthesis"),
    Category.MEM_D: ("power-gate the macro (duty_alpha), move it to a "
                     "low-leakage node, or switch to STT-RAM"),
    Category.MIPI: ("move more of the pipeline into the sensor to shrink "
                    "the transmitted data volume"),
    Category.UTSV: ("batch inter-layer transfers; uTSV energy is rarely "
                    "the real bottleneck"),
}


@dataclass(frozen=True)
class Bottleneck:
    """One ranked energy consumer."""

    name: str
    category: Category
    energy: float
    share: float
    hint: str

    def describe(self) -> str:
        return (f"{self.name:<40} {self.category.value:<7} "
                f"{units.format_energy(self.energy):>10} "
                f"({100 * self.share:5.1f}%)  -> {self.hint}")

    def to_dict(self) -> Dict[str, Any]:
        """JSON form used by exploration-point annotations."""
        return {"name": self.name, "category": self.category.value,
                "energy": self.energy, "share": self.share,
                "hint": self.hint}

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "Bottleneck":
        """Inverse of :meth:`to_dict`."""
        try:
            return cls(name=payload["name"],
                       category=Category(payload["category"]),
                       energy=payload["energy"], share=payload["share"],
                       hint=payload["hint"])
        except (KeyError, ValueError) as error:
            raise ConfigurationError(
                f"malformed bottleneck payload: {error}") from error


def identify_bottlenecks(report: EnergyReport, top: int = 5,
                         min_share: float = 0.02) -> List[Bottleneck]:
    """The ``top`` components by energy share, with re-design hints.

    Components below ``min_share`` of the total are omitted — they are not
    worth a re-design iteration.
    """
    if top < 1:
        raise ConfigurationError(f"top must be >= 1, got {top}")
    if not 0.0 <= min_share < 1.0:
        raise ConfigurationError(
            f"min_share must be in [0, 1), got {min_share}")
    total = report.total_energy
    if total <= 0:
        return []
    ranked = sorted(_by_component(report).items(), key=lambda kv: kv[1],
                    reverse=True)
    bottlenecks = []
    for (name, category), energy in ranked[:top]:
        share = energy / total
        if share < min_share:
            continue
        bottlenecks.append(Bottleneck(name=name, category=category,
                                      energy=energy, share=share,
                                      hint=_HINTS[category]))
    return bottlenecks


def _by_component(report: EnergyReport) -> Dict[Tuple[str, Category], Any]:
    """Energy per ``(name, category)`` component, in entry order."""
    groups: Dict[Tuple[str, Category], Any] = {}
    for entry in report.entries:
        key = (entry.name, entry.category)
        groups[key] = groups.get(key, 0.0) + entry.energy
    return groups


def top_bottleneck(report: EnergyReport, size: Optional[int] = None,
                   rows: Optional[List[int]] = None):
    """The top energy consumer, ranked as :func:`identify_bottlenecks`
    ranks: the first component of the largest energy, in entry order.

    For a one-point report (``size`` None), a :class:`Bottleneck`, or
    None when the total energy is not positive.  For a column report of
    ``size`` points, the :class:`~repro.explore.block.PointBlock`
    columns ``(causes, top, energy, share)`` of ``rows`` (None: every
    row, in order), ``top`` None where a row's total is not positive.
    """
    groups = _by_component(report)
    total = report.total_energy
    if size is None:
        if total <= 0:
            return None
        (name, category), energy = max(groups.items(),
                                       key=lambda kv: kv[1])
        return Bottleneck(name=name, category=category, energy=energy,
                          share=energy / total, hint=_HINTS[category])
    count = size if rows is None else len(rows)
    if not groups:
        return (), [None] * count, [0.0] * count, [0.0] * count
    import numpy
    keys = list(groups)
    matrix = numpy.vstack([dense(groups[key], size) for key in keys])
    top = matrix.argmax(axis=0)
    top_energy = matrix[top, numpy.arange(size)]
    total = dense(total, size)
    share = numpy.zeros(size)
    positive = total > 0.0
    numpy.divide(top_energy, total, out=share, where=positive)
    if rows is not None:
        top, top_energy, share, positive = \
            top[rows], top_energy[rows], share[rows], positive[rows]
    top_list = top.tolist()
    if not positive.all():
        top_list = [cause if keep else None
                    for cause, keep in zip(top_list, positive.tolist())]
    causes = [key + (_HINTS[key[1]],) for key in keys]
    return causes, top_list, top_energy.tolist(), share.tolist()


def dominant_category(report: EnergyReport) -> Optional[Category]:
    """The category holding the largest energy share (None if empty)."""
    rollup = report.by_category()
    if not rollup:
        return None
    return max(rollup, key=rollup.get)
