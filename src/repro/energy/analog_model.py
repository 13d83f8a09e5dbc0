"""Analog energy modeling (Sec. 4.2, Eqs. 2–13).

The per-frame analog energy is the per-access energy of every A-Component
weighted by its access count (Eq. 2).  Access counts follow from stencil
regularity (Eq. 3): operations mapped onto an AFA divide evenly over its
components.  Arrays with no mapped stage (e.g. the ADC array of Fig. 5)
process whatever the upstream array produces, so operation counts propagate
along the analog wiring.

:func:`analog_energy` works on the usages :func:`analog_usage` produced,
which the engine memoizes per design, and on one stage delay or a
per-point column of them (the explore fast path passes the latter; the
stock cell, component and array models evaluate it element-wise).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, TYPE_CHECKING

if TYPE_CHECKING:  # avoid a runtime cycle with repro.sim
    from repro.sim.mapping import Mapping

from repro.columns import total
from repro.exceptions import SimulationError
from repro.energy.report import Category, EnergyEntry
from repro.hw.analog.array import AnalogArray
from repro.hw.chip import SensorSystem
from repro.sw.dag import StageGraph
from repro.sw.stage import PixelInput

_CATEGORY_BY_ARRAY = {
    "sensing": Category.SEN,
    "compute": Category.COMP_A,
    "memory": Category.MEM_A,
}


@dataclass
class ArrayUsage:
    """Per-frame usage of one analog array."""

    array: AnalogArray
    ops: float
    outgoing_items: float
    stage_name: Optional[str]


def analog_usage(graph: StageGraph, system: SensorSystem,
                 mapping: Mapping, *,
                 resolved: Optional[Dict[str, object]] = None
                 ) -> List[ArrayUsage]:
    """Operation counts of every participating analog array.

    ``ops`` counts component-level accesses: a stage's primitive-op count
    divided by how many primitives one component access performs (the
    input volume of the array's leading component — e.g. a shared 2x2
    binning pixel performs four reads per access, a 9-tap switched-cap MAC
    performs nine MACs per access).
    """
    if resolved is None:
        # Only validation is needed here; the engine passes a ``resolved``
        # it already validated, direct callers validate on entry.
        mapping.validate(graph, system)
    usages: Dict[str, ArrayUsage] = {}

    # Pass 1: arrays with mapped stages.
    for array in system.analog_arrays:
        stage_names = mapping.stages_on(array.name)
        stages = [graph.get(name) for name in stage_names
                  if name in graph]
        if not stages:
            continue
        compute_stages = [s for s in stages if not isinstance(s, PixelInput)]
        basis = _ops_basis(array)
        if compute_stages:
            ops = total(s.total_ops for s in compute_stages) / basis
            primary = compute_stages[-1]
        else:
            ops = stages[0].total_ops / basis
            primary = stages[0]
        outgoing = ops * _output_volume(array)
        usages[array.name] = ArrayUsage(array=array, ops=ops,
                                        outgoing_items=outgoing,
                                        stage_name=primary.name)

    # Pass 2: propagate through unmapped arrays along the analog wiring.
    changed = True
    guard = 0
    while changed:
        changed = False
        guard += 1
        if guard > len(system.analog_arrays) + 2:
            raise SimulationError(
                "analog wiring propagation failed to converge; "
                "check for wiring cycles between analog arrays")
        for array in system.analog_arrays:
            if array.name in usages:
                continue
            producers = [p for p in array.input_arrays]
            if not producers:
                continue
            if any(p.name not in usages for p in producers):
                continue
            incoming = total(usages[p.name].outgoing_items for p in producers)
            basis = _ops_basis(array)
            ops = incoming / basis
            stage_name = usages[producers[0].name].stage_name
            usages[array.name] = ArrayUsage(
                array=array, ops=ops,
                outgoing_items=ops * _output_volume(array),
                stage_name=stage_name)
            changed = True

    return [usages[a.name] for a in system.analog_arrays
            if a.name in usages]


def analog_energy(usages: List[ArrayUsage], analog_stage_delay
                  ) -> List[EnergyEntry]:
    """Per-component analog energy entries for one frame (Eq. 2).

    ``analog_stage_delay`` is one delay, or a per-point column
    (:mod:`repro.columns`) that each array's
    :meth:`~AnalogArray.energy_breakdown` evaluates element-wise.
    """
    entries: List[EnergyEntry] = []
    for usage in usages:
        array = usage.array
        if usage.ops <= 0:
            continue
        category = _CATEGORY_BY_ARRAY[array.category]
        for component_name, energy in array.energy_breakdown(
                usage.ops, analog_stage_delay).items():
            entries.append(EnergyEntry(
                name=f"{array.name}/{component_name}",
                category=category,
                layer=array.layer,
                energy=energy,
                stage=usage.stage_name))
    return entries


def _ops_basis(array: AnalogArray) -> float:
    """Primitive ops one access of the array's leading component performs."""
    components = array.components
    if not components:
        raise SimulationError(f"analog array {array.name!r} is empty")
    leading = components[0][0]
    return float(leading.input_volume)


def _output_volume(array: AnalogArray) -> float:
    """Items the array emits per leading-component access."""
    components = array.components
    last = components[-1][0]
    return float(last.output_volume)
