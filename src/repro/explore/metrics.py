"""The metric/objective registry: named extractors over simulation output.

Every metric turns one simulated point — the :class:`~repro.api.Design`
plus its :class:`~repro.energy.report.EnergyReport` — into a single
float, uniformly, so exploration results, Pareto fronts, and ranking all
speak the same vocabulary instead of each analysis hard-coding its two
favorite fields.  A metric also declares its optimization ``goal``
(``"min"`` or ``"max"``), which the dominance machinery respects.

Built-ins cover the paper's Sec. 6 objectives — energy per frame, power,
power density (Table 3), digital latency, frame-budget slack, silicon
area — plus per-category energies and shares (``energy:MEM-D``,
``share:SEN``, ...).  Stall and timing violations are not metrics: they
surface as typed infeasible points in the exploration result, which is
where a hard constraint belongs.

User code registers additional metrics at runtime::

    register_metric(Metric("fps_per_mw",
                           unit="FPS/mW", goal="max",
                           extract=lambda design, report:
                               report.frame_rate /
                               (report.total_power / units.mW),
                           elementwise=True))

One extractor serves both explore engines.  A metric declared
``elementwise`` promises that it is plain arithmetic over the report, so
the vector engine may hand it a report whose energies and rates are
per-point columns (:mod:`repro.columns`) and read a column back;
metrics that do not opt in send their points to the object engine.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Dict, List, Sequence, Union

from repro.area.model import estimate_area, power_density
from repro.columns import divide_or_zero
from repro.energy.report import Category, EnergyReport
from repro.exceptions import ConfigurationError

#: Extractor signature: (design, report) -> float.
Extractor = Callable[["Design", EnergyReport], float]  # noqa: F821

_GOALS = ("min", "max")


@dataclass(frozen=True)
class Metric:
    """One named objective computed from a simulated design."""

    name: str
    unit: str
    extract: Extractor = field(compare=False)
    goal: str = "min"
    description: str = ""
    elementwise: bool = field(default=False, compare=False)

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigurationError("metric name must be non-empty")
        if self.goal not in _GOALS:
            raise ConfigurationError(
                f"metric {self.name!r}: goal must be one of {_GOALS}, "
                f"got {self.goal!r}")
        if not callable(self.extract):
            raise ConfigurationError(
                f"metric {self.name!r}: extractor must be callable")

    def value(self, design, report: EnergyReport) -> float:
        """Evaluate the metric on one simulated point."""
        return float(self.extract(design, report))


_REGISTRY: Dict[str, Metric] = {}


def register_metric(metric: Metric) -> Metric:
    """Register ``metric`` under its name (re-registering replaces)."""
    if not isinstance(metric, Metric):
        raise ConfigurationError(
            f"register_metric expects a Metric, got "
            f"{type(metric).__name__}")
    _REGISTRY[metric.name] = metric
    return metric


def metric(name: str) -> Metric:
    """Look a metric up by name."""
    if name not in _REGISTRY:
        raise ConfigurationError(
            f"unknown metric {name!r}; available: {available_metrics()}")
    return _REGISTRY[name]


def available_metrics() -> List[str]:
    """Registered metric names."""
    return sorted(_REGISTRY)


def resolve_metrics(objectives: Sequence[Union[str, Metric]]) -> List[Metric]:
    """Names and/or Metric values -> Metric list, rejecting duplicates."""
    if not objectives:
        raise ConfigurationError("at least one objective is required")
    resolved: List[Metric] = []
    seen = set()
    for objective in objectives:
        entry = objective if isinstance(objective, Metric) \
            else metric(objective)
        if entry.name in seen:
            raise ConfigurationError(
                f"duplicate objective {entry.name!r}")
        seen.add(entry.name)
        resolved.append(entry)
    return resolved


# --- built-ins ------------------------------------------------------------

def _register_builtins() -> None:
    # Every built-in is plain arithmetic over the report.
    builtin = partial(Metric, elementwise=True)
    register_metric(builtin(
        "energy_per_frame", unit="J/frame",
        extract=lambda design, report: report.total_energy,
        description="total energy per frame (Eq. 1)"))
    register_metric(builtin(
        "power", unit="W",
        extract=lambda design, report: report.total_power,
        description="average power at the configured frame rate"))
    register_metric(builtin(
        "power_density", unit="W/m^2",
        extract=lambda design, report: power_density(design.system, report),
        description="on-chip power density; hotspot bound for stacks "
                    "(Table 3)"))
    register_metric(builtin(
        "latency", unit="s",
        extract=lambda design, report: report.digital_latency,
        description="digital pipeline latency per frame"))
    register_metric(builtin(
        "frame_slack", unit="s", goal="max",
        extract=lambda design, report:
            report.frame_time - report.digital_latency,
        description="frame budget left after the digital pipeline"))
    register_metric(builtin(
        "area", unit="m^2",
        extract=lambda design, report:
            estimate_area(design.system).total,
        description="conservative total silicon area across layers"))
    register_metric(builtin(
        "footprint", unit="m^2",
        extract=lambda design, report:
            estimate_area(design.system).footprint,
        description="die footprint (largest layer of a stack)"))
    register_metric(builtin(
        "analog_energy", unit="J/frame",
        extract=lambda design, report: report.analog_energy,
        description="SEN + analog compute + analog memory energy"))
    register_metric(builtin(
        "digital_energy", unit="J/frame",
        extract=lambda design, report: report.digital_energy,
        description="digital compute + digital memory energy"))
    register_metric(builtin(
        "communication_energy", unit="J/frame",
        extract=lambda design, report: report.communication_energy,
        description="MIPI + uTSV link energy (Eq. 17)"))
    for category in Category:
        register_metric(builtin(
            f"energy:{category.value}", unit="J/frame",
            extract=_category_energy(category),
            description=f"energy of the {category.value} roll-up category"))
        register_metric(builtin(
            f"share:{category.value}", unit="fraction",
            extract=_category_share(category),
            description=f"share of total energy in {category.value}"))


def _category_energy(category: Category) -> Extractor:
    return lambda design, report: report.category_energy(category)


def _category_share(category: Category) -> Extractor:
    return lambda design, report: divide_or_zero(
        report.category_energy(category), report.total_energy)


_register_builtins()
