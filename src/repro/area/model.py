"""Conservative area estimation and power density (Sec. 6.2, Table 3).

The paper deliberately uses a *conservative* area proxy to upper-bound
power density: the pixel array approximates the analog area and the SRAM
macros approximate the digital area.  For a 2D design both shares sit on
one die; for a stacked design each layer's density is its own power over
its own area, and the reported chip density is the maximum across layers
(the thermal-relevant hotspot bound).

Densities fold element-wise over a column-valued report (one element per
explored point, see :mod:`repro.columns`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro import units
from repro.columns import maximum, total
from repro.exceptions import ConfigurationError
from repro.energy.report import Category, EnergyReport
from repro.hw.chip import SensorSystem
from repro.hw.layer import OFF_CHIP

#: Reference power densities the paper compares against (Sec. 6.2).
CPU_POWER_DENSITY = 1.0 * units.W / units.mm2
GPU_POWER_DENSITY = 0.3 * units.W / units.mm2


@dataclass(frozen=True)
class AreaBreakdown:
    """Per-layer silicon area of a sensor system (square meters)."""

    by_layer: Dict[str, float]

    @property
    def total(self) -> float:
        """Total area across on-chip layers."""
        return total(self.by_layer.values())

    @property
    def footprint(self) -> float:
        """Die footprint of a stacked design: all layers share the outline
        of the largest layer (typically the pixel array)."""
        return max(self.by_layer.values(), default=0.0)


def estimate_area(system: SensorSystem) -> AreaBreakdown:
    """Conservative per-layer area: pixel array + memory macros + PEs."""
    by_layer: Dict[str, float] = {}
    for layer_name in system.layers:
        if layer_name == OFF_CHIP:
            continue
        area = system.memory_area(layer_name)
        area += total(unit.area for unit in system.compute_units
                      if unit.layer == layer_name)
        by_layer[layer_name] = area
    # The pixel array sits on the layer hosting the first analog array.
    if system.analog_arrays and system.pixel_array_area > 0:
        pixel_layer = system.analog_arrays[0].layer
        by_layer[pixel_layer] = (by_layer.get(pixel_layer, 0.0)
                                 + system.pixel_array_area)
    return AreaBreakdown(by_layer=by_layer)


#: Link-energy categories; Table 3's on-die accounting leaves them out.
_COMM_CATEGORIES = (Category.MIPI, Category.UTSV)


def _is_comm_entry(entry) -> bool:
    return entry.category in _COMM_CATEGORIES


def layer_power_density(system: SensorSystem, report: EnergyReport,
                        include_comm: bool = False) -> Dict[str, float]:
    """Power density of each on-chip layer (W/m^2 in SI; print as mW/mm^2).

    Communication energy (MIPI/uTSV link power) is excluded by default,
    matching Table 3's on-die accounting; pass ``include_comm=True`` to
    fold the transmitter power back in.
    """
    return _layer_densities(system, report, include_comm,
                            estimate_area(system))


def _layer_densities(system: SensorSystem, report: EnergyReport,
                     include_comm: bool,
                     areas: AreaBreakdown) -> Dict[str, float]:
    power_by_layer = {}
    for entry in report.entries:
        if entry.layer == OFF_CHIP:
            continue
        if not include_comm and _is_comm_entry(entry):
            continue
        power_by_layer[entry.layer] = (power_by_layer.get(entry.layer, 0.0)
                                       + entry.energy * report.frame_rate)
    densities = {}
    # In a stacked design every die shares the chip footprint, so each
    # layer's density is its power over the footprint; in a 2D design the
    # single die's own area applies (same thing when only one layer exists).
    footprint = areas.footprint if system.is_stacked else None
    for layer_name, power in power_by_layer.items():
        area = footprint if footprint else areas.by_layer.get(layer_name,
                                                              0.0)
        if area <= 0:
            continue
        densities[layer_name] = power / area
    return densities


def power_density(system: SensorSystem, report: EnergyReport,
                  include_comm: bool = False) -> float:
    """Chip power density: on-chip power over area.

    2D designs divide total on-chip power by the single die area; stacked
    designs report the maximum per-layer density (the hotspot bound the
    thermal argument of Sec. 6.2 cares about).
    """
    areas = estimate_area(system)
    densities = _layer_densities(system, report, include_comm, areas)
    if not densities:
        raise ConfigurationError(
            f"system {system.name!r} has no on-chip area to compute a "
            f"power density over; set pixel geometry or memory areas")
    if system.is_stacked:
        return maximum(densities.values())
    total_power = total(entry.energy * report.frame_rate
                        for entry in report.entries
                        if entry.layer != OFF_CHIP
                        and (include_comm or not _is_comm_entry(entry)))
    return total_power / areas.total


def format_density(density: float) -> str:
    """Render a power density in the paper's mW/mm^2 unit."""
    return f"{density / (units.mW / units.mm2):.2f} mW/mm^2"
