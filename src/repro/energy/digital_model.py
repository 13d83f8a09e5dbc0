"""Digital energy modeling (Sec. 4.3, Eqs. 14–16).

Compute energy is per-cycle energy times simulated cycle counts (Eq. 15);
memory energy is dynamic read/write energy times simulated access counts
plus leakage over the powered fraction of the frame (Eq. 16).

``frame_time`` may be a per-point column (see :mod:`repro.columns`):
compute energies do not depend on it, and leakage broadcasts.
"""

from __future__ import annotations

from typing import List
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # avoid a runtime cycle with repro.sim
    from repro.sim.cycle_sim import DigitalTimeline


from repro.energy.report import Category, EnergyEntry
from repro.hw.chip import SensorSystem


def digital_energy(system: SensorSystem, timeline: DigitalTimeline,
                   frame_time) -> List[EnergyEntry]:
    """Per-unit digital energy entries for one frame (Eq. 14)."""
    entries: List[EnergyEntry] = []
    entries.extend(_compute_entries(system, timeline))
    entries.extend(_memory_entries(system, timeline, frame_time))
    return entries


def _compute_entries(system: SensorSystem, timeline: DigitalTimeline
                     ) -> List[EnergyEntry]:
    by_unit = {unit.name: unit for unit in system.compute_units}
    entries = []
    for activity in timeline.activities:
        unit = by_unit[activity.unit_name]
        entries.append(EnergyEntry(
            name=activity.unit_name,
            category=Category.COMP_D,
            layer=unit.layer,
            energy=activity.energy,
            stage=activity.stage_name))
    return entries


def _memory_entries(system: SensorSystem, timeline: DigitalTimeline,
                    frame_time) -> List[EnergyEntry]:
    entries = []
    for memory in system.memories:
        reads = timeline.memory_reads.get(memory.name, 0.0)
        writes = timeline.memory_writes.get(memory.name, 0.0)
        dynamic = memory.read_energy(reads) + memory.write_energy(writes)
        # Leakage P_leak * t_frame * alpha with t_frame > 0 is zero iff
        # P_leak or alpha is, so whether a memory is skipped does not
        # depend on the frame time.
        if dynamic == 0.0 and (memory.leakage_power == 0.0
                               or memory.duty_alpha == 0.0):
            continue
        if reads == 0.0 and writes == 0.0 and memory.duty_alpha == 0.0:
            continue
        entries.append(EnergyEntry(
            name=memory.name,
            category=Category.MEM_D,
            layer=memory.layer,
            energy=dynamic + memory.leakage_energy(frame_time),
            stage=timeline.memory_stage.get(memory.name)))
    return entries
