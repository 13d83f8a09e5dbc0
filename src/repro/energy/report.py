"""The component-level energy report CamJ produces.

Entries are tagged with the categories the paper's figures roll up to:
``SEN`` (pixel sensing and A/D conversion), analog compute/memory
(``COMP-A``/``MEM-A``), digital compute/memory (``COMP-D``/``MEM-D``), and
the two communication interfaces (``MIPI``/``uTSV``).

Energies, ``frame_rate`` and ``frame_time`` may also be per-point columns
(NumPy arrays, see :mod:`repro.columns`): the explore fast path builds
one report for a whole group of points, and every rollup then returns
the column of the scalar rollups.  Rendering and serialization expect
one point.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro import units
from repro.columns import any_true, total
from repro.exceptions import ConfigurationError


class Category(enum.Enum):
    """Roll-up category of one energy entry (Fig. 9 / Fig. 11 legends)."""

    SEN = "SEN"
    COMP_A = "COMP-A"
    MEM_A = "MEM-A"
    COMP_D = "COMP-D"
    MEM_D = "MEM-D"
    MIPI = "MIPI"
    UTSV = "uTSV"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


@dataclass(frozen=True)
class EnergyEntry:
    """Energy attributed to one hardware component (a float or a column)."""

    name: str
    category: Category
    layer: str
    energy: float
    stage: Optional[str] = None

    def __post_init__(self) -> None:
        if any_true(self.energy < 0):
            raise ConfigurationError(
                f"energy entry {self.name!r}: energy must be non-negative, "
                f"got {self.energy}")


@dataclass
class EnergyReport:
    """Per-frame energy breakdown of a simulated sensor system.

    The report also carries the timing facts the energy depends on so that
    downstream analyses (power density, per-stage normalization) need no
    re-simulation.
    """

    system_name: str
    frame_rate: float
    frame_time: float
    digital_latency: float
    analog_stage_delay: float
    entries: List[EnergyEntry] = field(default_factory=list)

    # --- accumulation ----------------------------------------------------------

    def add(self, entry: EnergyEntry) -> None:
        """Append one entry."""
        self.entries.append(entry)

    def extend(self, entries) -> None:
        """Append many entries."""
        self.entries.extend(entries)

    # --- rollups --------------------------------------------------------------

    @property
    def total_energy(self) -> float:
        """Total energy per frame (Eq. 1)."""
        return total(e.energy for e in self.entries)

    @property
    def total_power(self) -> float:
        """Average power at the configured frame rate."""
        return self.total_energy * self.frame_rate

    def by_category(self) -> Dict[Category, float]:
        """Energy per roll-up category (absent categories omitted)."""
        rollup: Dict[Category, float] = {}
        for entry in self.entries:
            rollup[entry.category] = rollup.get(entry.category, 0.0) \
                + entry.energy
        return rollup

    def by_layer(self) -> Dict[str, float]:
        """Energy per layer of the stack."""
        rollup: Dict[str, float] = {}
        for entry in self.entries:
            rollup[entry.layer] = rollup.get(entry.layer, 0.0) + entry.energy
        return rollup

    def by_component(self) -> Dict[str, float]:
        """Energy per named hardware component."""
        rollup: Dict[str, float] = {}
        for entry in self.entries:
            rollup[entry.name] = rollup.get(entry.name, 0.0) + entry.energy
        return rollup

    def by_stage(self) -> Dict[str, float]:
        """Energy per algorithm stage, for stage-attributed entries."""
        rollup: Dict[str, float] = {}
        for entry in self.entries:
            if entry.stage is None:
                continue
            rollup[entry.stage] = rollup.get(entry.stage, 0.0) + entry.energy
        return rollup

    def category_energy(self, category: Category) -> float:
        """Energy of one category (0 when absent)."""
        return self.by_category().get(category, 0.0)

    @property
    def communication_energy(self) -> float:
        """MIPI + uTSV energy (Eq. 17 result)."""
        return (self.category_energy(Category.MIPI)
                + self.category_energy(Category.UTSV))

    @property
    def analog_energy(self) -> float:
        """SEN + analog compute + analog memory."""
        return (self.category_energy(Category.SEN)
                + self.category_energy(Category.COMP_A)
                + self.category_energy(Category.MEM_A))

    @property
    def digital_energy(self) -> float:
        """Digital compute + digital memory."""
        return (self.category_energy(Category.COMP_D)
                + self.category_energy(Category.MEM_D))

    def energy_per_pixel(self, num_pixels: int) -> float:
        """Total frame energy normalized per pixel (Fig. 7's metric)."""
        if num_pixels < 1:
            raise ConfigurationError(
                f"pixel count must be >= 1, got {num_pixels}")
        return self.total_energy / num_pixels

    # --- rendering --------------------------------------------------------------

    def to_table(self) -> str:
        """Human-readable per-category table."""
        lines = [f"Energy report — {self.system_name} @ "
                 f"{self.frame_rate:g} FPS",
                 f"  frame time    {units.format_time(self.frame_time)}",
                 f"  total energy  {units.format_energy(self.total_energy)} "
                 f"({units.format_power(self.total_power)})"]
        rollup = self.by_category()
        total = self.total_energy or 1.0
        for category in Category:
            if category not in rollup:
                continue
            energy = rollup[category]
            lines.append(f"  {category.value:<7} "
                         f"{units.format_energy(energy):>12}  "
                         f"({100.0 * energy / total:5.1f}%)")
        return "\n".join(lines)

    def to_dict(self) -> dict:
        """JSON-serializable form, for downstream tooling and archiving."""
        return {
            "system": self.system_name,
            "frame_rate": self.frame_rate,
            "frame_time": self.frame_time,
            "digital_latency": self.digital_latency,
            "analog_stage_delay": self.analog_stage_delay,
            "total_energy": self.total_energy,
            "entries": [
                {
                    "name": entry.name,
                    "category": entry.category.value,
                    "layer": entry.layer,
                    "energy": entry.energy,
                    "stage": entry.stage,
                }
                for entry in self.entries
            ],
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "EnergyReport":
        """Inverse of :meth:`to_dict`."""
        try:
            report = cls(system_name=payload["system"],
                         frame_rate=payload["frame_rate"],
                         frame_time=payload["frame_time"],
                         digital_latency=payload["digital_latency"],
                         analog_stage_delay=payload["analog_stage_delay"])
            for raw in payload["entries"]:
                report.add(EnergyEntry(
                    name=raw["name"],
                    category=Category(raw["category"]),
                    layer=raw["layer"],
                    energy=raw["energy"],
                    stage=raw.get("stage")))
        except (KeyError, ValueError) as error:
            raise ConfigurationError(
                f"malformed energy-report payload: {error}") from error
        return report

    def __repr__(self) -> str:
        return (f"EnergyReport({self.system_name!r}, "
                f"total={units.format_energy(self.total_energy)})")
