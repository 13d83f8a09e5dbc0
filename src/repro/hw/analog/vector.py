"""Vectorized A-Cell / component / array energy kernels.

Used by the explore engine's structure-of-arrays fast path
(:mod:`repro.explore.vector`): an eligible design is *lowered* once into
per-component energy kernels, each mapping a vector of delays (one
element per explored point) to a vector of energies.  Every kernel
replays the scalar model's exact floating-point operation sequence with
element-wise NumPy ops, so a lowered array produces per-element energies
bit-identical to :meth:`AnalogArray.energy_breakdown`.

Only the stock cell/component/array classes can be lowered — subclasses
may override ``energy``/``energy_per_access``/``energy_breakdown``
arbitrarily, so exact-type checks guard every level and raise
:class:`~repro.exceptions.VectorUnsupported`, which the explore engine
turns into a per-group fallback to the object path.
"""

from __future__ import annotations

import math
from typing import Callable, Dict

import numpy as np

from repro.exceptions import VectorUnsupported
from repro.hw.analog.adc_fom import walden_fom_batch
from repro.hw.analog.array import AnalogArray
from repro.hw.analog.cells import DynamicCell, NonLinearCell, StaticCell
from repro.hw.analog.components import AnalogComponent


def _lower_cell(cell) -> Callable:
    """One cell's ``energy(per_fire_delay, per_fire_static)`` as a kernel.

    The kernel takes vectors (or design-constant scalars, which
    broadcast) and returns the per-firing energy per point.
    """
    cell_type = type(cell)
    if cell_type is DynamicCell:
        # Eq. 5: pure capacitor switching, independent of timing.
        constant = cell.energy(1.0, 0.0)
        return lambda per_fire_delay, per_fire_static: constant
    if cell_type is StaticCell:
        vdda = cell.vdda
        if cell.mode == StaticCell._DIRECT:
            charge = cell.load_capacitance * cell.voltage_swing
            def direct(per_fire_delay, per_fire_static):
                bias = charge / per_fire_delay
                return vdda * bias * per_fire_static
            return direct
        angular = 2.0 * math.pi * cell.load_capacitance
        gain = cell.gain
        gm_id = cell.gm_id
        def gm_id_biased(per_fire_delay, per_fire_static):
            bandwidth = 1.0 / per_fire_delay
            gbw = gain * bandwidth
            bias = angular * gbw / gm_id
            return vdda * bias * per_fire_static
        return gm_id_biased
    if cell_type is NonLinearCell:
        if cell.energy_per_conversion is not None:
            constant = cell.energy_per_conversion
            return lambda per_fire_delay, per_fire_static: constant
        scale = 2 ** cell.bits
        def adc(per_fire_delay, per_fire_static):
            return walden_fom_batch(1.0 / per_fire_delay) * scale
        return adc
    raise VectorUnsupported(
        f"cell {getattr(cell, 'name', cell)!r} has custom type "
        f"{cell_type.__name__}")


def lower_component(component: AnalogComponent) -> Callable:
    """``energy_per_access`` as a kernel over component-delay vectors."""
    if type(component) is not AnalogComponent:
        raise VectorUnsupported(
            f"component {getattr(component, 'name', component)!r} has "
            f"custom type {type(component).__name__}")
    plan = []
    critical_index = 0
    for usage in component.cell_usages:
        if usage.on_critical_path:
            index = critical_index
            critical_index += 1
        else:
            index = None
        plan.append((usage, index, _lower_cell(usage.cell)))
    num_slots = max(1, critical_index)

    def energy_per_access(component_delay):
        slot = component_delay / num_slots
        total = np.zeros_like(component_delay)
        for usage, index, kernel in plan:
            if index is not None:
                elapsed_before = index * slot
                derived_static = component_delay - elapsed_before
                cell_delay = slot
            else:
                derived_static = component_delay
                cell_delay = component_delay
            static_time = (usage.static_time
                           if usage.static_time is not None
                           else derived_static)
            per_fire_delay = cell_delay / usage.temporal
            per_fire_static = static_time / usage.temporal
            per_fire = kernel(per_fire_delay, per_fire_static)
            total = total + per_fire * usage.access_count
        return total

    return energy_per_access


def lower_array(array: AnalogArray) -> Callable:
    """``energy_breakdown`` as a kernel over array-delay vectors."""
    if type(array) is not AnalogArray:
        raise VectorUnsupported(
            f"array {getattr(array, 'name', array)!r} has custom type "
            f"{type(array).__name__}")
    entries = array.components
    if not entries:
        raise VectorUnsupported(f"array {array.name!r} has no components")
    lowered = [(component.name, count, lower_component(component))
               for component, count in entries]

    def energy_breakdown(ops: float, array_delay) -> Dict[str, object]:
        breakdown: Dict[str, object] = {}
        for name, count, per_access in lowered:
            accesses_per_component = ops / count
            per_access_delay = array_delay / max(1.0, accesses_per_component)
            breakdown[name] = per_access(per_access_delay) * ops
        return breakdown

    return energy_breakdown
