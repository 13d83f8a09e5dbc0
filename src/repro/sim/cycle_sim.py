"""Cycle-level simulation of the digital domain (Sec. 3.3, Sec. 4.1).

Three simulation levels are provided:

* :func:`simulate_digital` — the default analytical timeline.  Stencil
  regularity makes cycle counts closed-form: a pipelined unit producing
  ``N`` outputs at ``k`` outputs/cycle runs ``N/k + depth - 1`` cycles, and
  streaming consumers start once the producer has filled the minimum
  window (one line-buffer row group, a full double buffer, ...).  This is
  what the energy model and delay estimator consume.

* :func:`cycle_accurate_latency` — an event-driven, skip-ahead simulator
  used to validate the analytical model and to detect the three stall
  scenarios of Sec. 4.1 exactly (missing producer data, full memory,
  insufficient ports).  Instead of stepping every cycle, it simulates one
  cycle exactly, computes how many subsequent cycles every stage provably
  repeats the same behavior (issue, deliver, or stay blocked), and jumps
  all stages forward in one batch — O(state transitions) work instead of
  O(cycles x stages x pipeline depth), with identical cycle counts.

* :func:`_cycle_accurate_reference` — the original per-cycle loop, kept
  as the ground truth the event-driven simulator is verified against
  (see ``tests/test_cycle_sim_equivalence.py``, which also holds the
  event-driven path to >= 10x the loop), and as the fallback for the rare
  configurations whose bookkeeping is not exactly representable
  (fractional per-port pixel shares or fractional memory capacities).

All levels report the digital-domain latency ``T_D`` that the analog delay
estimation needs (Fig. 6) plus per-memory access counts for Eq. 16.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.exceptions import SimulationError, StallError
from repro.hw.analog.array import AnalogArray
from repro.hw.chip import SensorSystem
from repro.hw.digital.compute import ComputeUnit, SystolicArray
from repro.hw.digital.memory import DigitalMemory, DoubleBuffer, LineBuffer
from repro.sim.mapping import Mapping
from repro.sw.dag import StageGraph
from repro.sw.stage import DNNProcessStage, ProcessStage, Stage


@dataclass
class UnitActivity:
    """One digital stage executing on one compute unit."""

    unit_name: str
    stage_name: str
    cycles: float
    start: float
    duration: float
    energy: float

    @property
    def finish(self) -> float:
        """Wall-clock completion time within the frame."""
        return self.start + self.duration


@dataclass
class DigitalTimeline:
    """Result of the digital-domain simulation."""

    activities: List[UnitActivity] = field(default_factory=list)
    memory_reads: Dict[str, float] = field(default_factory=dict)
    memory_writes: Dict[str, float] = field(default_factory=dict)
    #: Memory name -> name of the first stage reading it (stage attribution).
    memory_stage: Dict[str, str] = field(default_factory=dict)
    #: Lazily-built stage-name index over ``activities`` (first wins).
    _by_stage: Dict[str, UnitActivity] = field(
        default_factory=dict, repr=False, compare=False)
    _indexed_count: int = field(default=0, repr=False, compare=False)

    @property
    def total_latency(self) -> float:
        """``T_D``: makespan of the digital domain within one frame."""
        if not self.activities:
            return 0.0
        return max(a.finish for a in self.activities)

    def activity_for(self, stage_name: str) -> UnitActivity:
        """Activity record of one stage (dict lookup, not a list scan)."""
        if self._indexed_count != len(self.activities):
            # Rebuild on growth so externally-appended activities are seen;
            # setdefault keeps the first record per stage, like the old scan.
            self._by_stage.clear()
            for activity in self.activities:
                self._by_stage.setdefault(activity.stage_name, activity)
            self._indexed_count = len(self.activities)
        activity = self._by_stage.get(stage_name)
        if activity is None:
            raise SimulationError(f"no digital activity for stage {stage_name!r}")
        return activity


def _fill_fraction(producer: Stage, consumer: Stage,
                   memory: Optional[DigitalMemory]) -> float:
    """Fraction of the producer's output the consumer must wait for.

    * double buffer: the consumer works on the previous buffer — it starts
      only after the producer fills a full buffer (fraction 1);
    * line buffer: the consumer starts once ``kernel_rows - 1`` input rows
      plus one pixel are buffered (Fig. 6's "after the second line");
    * FIFO or direct hand-off: one producer output group suffices.
    """
    if isinstance(memory, DoubleBuffer):
        return 1.0
    if isinstance(memory, LineBuffer) and isinstance(consumer, ProcessStage):
        rows = producer.output_size[0]
        kernel_rows = consumer.kernel[0]
        return min(1.0, max(kernel_rows - 1, 1) / rows)
    rows = producer.output_size[0]
    return 1.0 / max(1, rows)


def _connecting_memory(producer_unit, consumer_unit
                       ) -> Optional[DigitalMemory]:
    """The memory structure through which two units hand data off."""
    if isinstance(consumer_unit, ComputeUnit):
        consumer_memories = consumer_unit.input_memories
    else:
        return None
    if isinstance(producer_unit, ComputeUnit):
        producer_out = ([producer_unit.output_memory]
                        if producer_unit.output_memory else [])
    elif isinstance(producer_unit, AnalogArray):
        producer_out = producer_unit.output_memories
    else:
        producer_out = []
    for memory in consumer_memories:
        if memory in producer_out:
            return memory
    if consumer_memories:
        return consumer_memories[0]
    return None


def _stage_cycles(stage: Stage, unit: ComputeUnit) -> float:
    """Active cycle count of one stage on one unit."""
    if isinstance(unit, SystolicArray) and isinstance(stage, DNNProcessStage):
        return unit.cycles_for_macs(stage.num_macs)
    return unit.active_cycles(stage.output_pixels)


def _stage_energy(stage: Stage, unit: ComputeUnit, cycles: float) -> float:
    """Compute energy of one stage on one unit (Eq. 15)."""
    if isinstance(unit, SystolicArray) and isinstance(stage, DNNProcessStage):
        return unit.energy_for_macs(stage.num_macs)
    return cycles * unit.energy_per_cycle


def simulate_digital(graph: StageGraph, system: SensorSystem,
                     mapping: Mapping, *,
                     resolved: Optional[Dict[str, object]] = None
                     ) -> DigitalTimeline:
    """Analytical digital-domain timeline with memory access counts.

    ``resolved`` lets the engine thread one ``mapping.resolve`` result
    through every consumer instead of re-resolving per phase.
    """
    if resolved is None:
        resolved = mapping.resolve(graph, system)
    timeline = DigitalTimeline()
    unit_free: Dict[str, float] = {}
    stage_activity: Dict[str, UnitActivity] = {}

    for stage in graph.topological_order:
        unit = resolved[stage.name]
        if not isinstance(unit, ComputeUnit):
            continue
        cycles = _stage_cycles(stage, unit)
        duration = cycles * unit.cycle_time
        energy = _stage_energy(stage, unit, cycles)

        start = unit_free.get(unit.name, 0.0)
        for producer in stage.input_stages:
            producer_unit = resolved[producer.name]
            if not isinstance(producer_unit, ComputeUnit):
                continue  # analog feed adapts to the digital schedule
            producer_activity = stage_activity.get(producer.name)
            if producer_activity is None:
                continue
            memory = _connecting_memory(producer_unit, unit)
            fraction = _fill_fraction(producer, stage, memory)
            earliest = (producer_activity.start
                        + fraction * producer_activity.duration)
            start = max(start, earliest)

        activity = UnitActivity(unit_name=unit.name, stage_name=stage.name,
                                cycles=cycles, start=start,
                                duration=duration, energy=energy)
        timeline.activities.append(activity)
        stage_activity[stage.name] = activity
        unit_free[unit.name] = activity.finish

        _count_memory_accesses(timeline, graph, resolved, stage, unit, cycles)

    _count_analog_feed_writes(timeline, graph, resolved)
    return timeline


def _count_memory_accesses(timeline: DigitalTimeline, graph: StageGraph,
                           resolved: Dict[str, object], stage: Stage,
                           unit: ComputeUnit, cycles: float) -> None:
    """Reads by this stage and writes of its output (Eq. 16 inputs)."""
    steady_cycles = max(0.0, cycles - (unit.num_stages - 1))
    shapes = unit.input_pixels_per_cycle
    seen: List[DigitalMemory] = []
    for index, memory in enumerate(unit.input_memories):
        if memory in seen:
            continue
        seen.append(memory)
        shape = shapes[min(index, len(shapes) - 1)]
        pixels = steady_cycles * _volume(shape)
        timeline.memory_reads[memory.name] = (
            timeline.memory_reads.get(memory.name, 0.0) + pixels)
        timeline.memory_stage.setdefault(memory.name, stage.name)
    if unit.output_memory is not None:
        timeline.memory_writes[unit.output_memory.name] = (
            timeline.memory_writes.get(unit.output_memory.name, 0.0)
            + stage.output_pixels)


def _count_analog_feed_writes(timeline: DigitalTimeline, graph: StageGraph,
                              resolved: Dict[str, object]) -> None:
    """Writes into digital memories performed by the analog front-end."""
    for producer, consumer in graph.edges():
        producer_unit = resolved[producer.name]
        consumer_unit = resolved[consumer.name]
        if not isinstance(producer_unit, AnalogArray):
            continue
        if not isinstance(consumer_unit, ComputeUnit):
            continue
        memory = _connecting_memory(producer_unit, consumer_unit)
        if memory is None:
            continue
        timeline.memory_writes[memory.name] = (
            timeline.memory_writes.get(memory.name, 0.0)
            + producer.output_pixels)


def _volume(shape) -> int:
    product = 1
    for value in shape:
        product *= value
    return product


# --- cycle-accurate validation simulator -------------------------------------


@dataclass
class _PipelineState:
    """Per-stage bookkeeping of the reference per-cycle simulator."""

    stage: Stage
    unit: ComputeUnit
    consumed: float = 0.0
    produced: float = 0.0
    pending: deque = field(default_factory=deque)

    @property
    def input_target(self) -> float:
        """Total pixels the stage must consume."""
        return _stage_input_target(self.stage, self.unit)

    @property
    def done(self) -> bool:
        """Whether the stage produced its full frame output."""
        return self.produced >= self.stage.output_pixels and not self.pending


def _stage_input_target(stage: Stage, unit: ComputeUnit) -> float:
    """Total pixels a stage must consume — the one rule both simulators use."""
    if isinstance(unit, SystolicArray) and isinstance(stage, DNNProcessStage):
        cycles = unit.cycles_for_macs(stage.num_macs)
        return cycles * unit.input_throughput
    cycles = unit.active_cycles(stage.output_pixels)
    steady = max(0.0, cycles - (unit.num_stages - 1))
    return steady * unit.input_throughput


def _analog_fed_memories(graph: StageGraph, resolved: Dict[str, object]
                         ) -> set:
    """Memories written by the analog front-end: modeled as always ready."""
    fed = set()
    for producer, consumer in graph.edges():
        producer_unit = resolved[producer.name]
        consumer_unit = resolved[consumer.name]
        if isinstance(producer_unit, AnalogArray) and isinstance(
                consumer_unit, ComputeUnit):
            memory = _connecting_memory(producer_unit, consumer_unit)
            if memory is not None:
                fed.add(memory.name)
    return fed


# --- event-driven skip-ahead simulator ---------------------------------------


class _EventState:
    """Per-stage bookkeeping of the event-driven simulator.

    ``runs`` replaces the reference deque of per-entry ages: each run
    ``[next_deliver_cycle, count]`` stands for ``count`` in-flight pipeline
    entries maturing on consecutive cycles, so a steady streaming stage is
    one run however deep the pipeline — aging is free and batch delivery
    is O(1).
    """

    __slots__ = ("stage", "unit", "need", "inc", "thresh", "input_target",
                 "out_px", "out_thr", "ns", "gated_mems", "out_mem",
                 "out_cap", "consumed", "produced", "runs", "issued",
                 "delivered")

    def __init__(self, stage: Stage, unit: ComputeUnit, analog_fed: set):
        self.stage = stage
        self.unit = unit
        self.need = unit.input_throughput
        self.inc = max(1, self.need)
        self.thresh = self.need / max(1, len(unit.input_memories))
        self.input_target = _stage_input_target(stage, unit)
        self.out_px = stage.output_pixels
        self.out_thr = unit.output_throughput
        self.ns = unit.num_stages
        # Availability/decrement list in unit order; analog-fed memories
        # are modeled as always ready and are never drained.
        self.gated_mems = [m.name for m in unit.input_memories
                          if m.name not in analog_fed]
        out = unit.output_memory
        self.out_mem = out.name if out is not None else None
        self.out_cap = out.capacity_pixels if out is not None else 0.0
        self.consumed = 0.0
        self.produced = 0.0
        self.runs: deque = deque()
        # Action pattern of the most recent exactly-simulated cycle.
        self.issued = False
        self.delivered: Optional[float] = None

    @property
    def done(self) -> bool:
        return self.produced >= self.out_px and not self.runs

    def exactly_representable(self) -> bool:
        """Whether skip-ahead arithmetic is exact for this stage.

        Occupancies evolve by ``thresh`` decrements and integer pixel
        increments; when those (and the output capacity) are integral,
        batched ``k * delta`` updates are bit-identical to ``k``
        sequential float updates, so jumps cannot diverge from the
        reference loop.
        """
        if self.gated_mems and not float(self.thresh).is_integer():
            return False
        if self.out_mem is not None and not float(self.out_cap).is_integer():
            return False
        return True


def _build_event_states(graph: StageGraph, resolved: Dict[str, object],
                        analog_fed: set
                        ) -> Tuple[List["_EventState"], Optional[float]]:
    """Digital stage states in topological order + the uniform clock."""
    states: List[_EventState] = []
    clock = None
    for stage in graph.topological_order:
        unit = resolved[stage.name]
        if not isinstance(unit, ComputeUnit):
            continue
        if clock is None:
            clock = unit.clock_hz
        elif abs(clock - unit.clock_hz) > 1e-6:
            raise SimulationError(
                "cycle-accurate simulation requires a uniform digital clock")
        states.append(_EventState(stage, unit, analog_fed))
    return states, clock


def _precheck_ports(states: List["_EventState"]) -> None:
    """Raise the per-issue port-limit stall up front (it is config-static).

    The reference loop re-evaluates this on every issue attempt; the
    condition depends only on the configuration, so checking each stage
    that will ever attempt an issue (``input_target > 0``), in state
    order, raises the identical error.
    """
    for st in states:
        if not st.consumed < st.input_target:
            continue
        unit = st.unit
        need = st.need
        for memory in unit.input_memories:
            max_words = memory.num_read_ports
            if need > max_words * memory.pixels_per_read_word * len(
                    unit.input_memories):
                raise StallError(
                    f"memory {memory.name!r} has too few read ports for unit "
                    f"{unit.name!r} ({need} pixels/cycle needed)")


def _event_cycle(states: List["_EventState"], occupancy: Dict[str, float],
                 cycle: int) -> bool:
    """Simulate one cycle exactly; record each stage's action pattern.

    Mirrors the reference loop: all stages attempt to issue (in
    topological order, mutating occupancy as they go), then all pipeline
    entries age and matured outputs deliver.
    """
    progressed = False
    for st in states:
        st.issued = False
        if st.consumed < st.input_target:
            ok = True
            for name in st.gated_mems:
                if occupancy[name] < st.thresh:
                    ok = False
                    break
            if ok and st.out_mem is not None:
                if st.out_cap - occupancy[st.out_mem] < st.out_thr:
                    ok = False
            if ok:
                for name in st.gated_mems:
                    occupancy[name] -= st.thresh
                st.consumed += st.inc
                deliver_at = cycle + st.ns - 1
                runs = st.runs
                if runs and runs[-1][0] + runs[-1][1] == deliver_at:
                    runs[-1][1] += 1
                else:
                    runs.append([deliver_at, 1])
                st.issued = True
                progressed = True
    for st in states:
        st.delivered = None
        runs = st.runs
        if runs and runs[0][0] <= cycle:
            head = runs[0]
            head[0] += 1
            head[1] -= 1
            if not head[1]:
                runs.popleft()
            amount = min(st.out_thr, st.out_px - st.produced)
            st.produced += amount
            if st.out_mem is not None and amount > 0:
                occupancy[st.out_mem] += amount
            st.delivered = amount
            progressed = True
    return progressed


def _prefix_bound(predicate, estimate: float) -> int:
    """Largest ``j >= 0`` with ``predicate(i)`` true for all ``1 <= i <= j``.

    ``predicate`` must hold on a prefix (linear state evolution makes
    every jump condition monotone); ``estimate`` is a closed-form guess
    that is corrected downward by direct evaluation, so a jump can never
    overshoot a state transition.
    """
    j = int(estimate)
    if j < 0:
        return 0
    while j > 0 and not predicate(j):
        j -= 1
    return j


def _plan_jump(states: List["_EventState"], occupancy: Dict[str, float],
               cycle: int, cap: int) -> int:
    """Max additional cycles every stage provably repeats its last action.

    ``cycle`` is the exactly-simulated cycle; the jump would cover
    ``cycle+1 .. cycle+k``.  Works on the recorded action pattern: each
    stage either keeps issuing (until its input target, a drained input,
    or a filled output bounds it), keeps delivering (until its pipeline
    run gaps or its final partial output), or stays blocked (until the
    occupancy trend lifts the failing condition).  All quantities evolve
    linearly under a fixed pattern, so each bound is closed-form.
    """
    # Net per-cycle occupancy drift of the recorded pattern.
    rate: Dict[str, float] = {}
    for st in states:
        if st.issued:
            for name in st.gated_mems:
                rate[name] = rate.get(name, 0.0) - st.thresh
        if st.delivered is not None and st.out_mem is not None:
            rate[st.out_mem] = rate.get(st.out_mem, 0.0) + st.delivered

    k = cap
    # Intra-cycle occupancy deltas applied by stages earlier in issue
    # order — each stage's checks see those, exactly as in _event_cycle.
    partial: Dict[str, float] = {}
    for st in states:
        if st.done:
            if st.issued or st.delivered is not None:
                return 0  # its final action just happened; never repeats
            continue

        # --- issue side ---------------------------------------------------
        if st.issued:
            remaining = st.input_target - st.consumed
            consumed, inc, target = st.consumed, st.inc, st.input_target
            k = min(k, _prefix_bound(
                lambda j: consumed + (j - 1) * inc < target,
                remaining / inc + 1))
            if k <= 0:
                return 0
            for name in st.gated_mems:
                drift = rate.get(name, 0.0)
                if drift >= 0:
                    continue
                level = occupancy[name] + partial.get(name, 0.0)
                thresh = st.thresh
                k = min(k, _prefix_bound(
                    lambda j: level + (j - 1) * drift >= thresh,
                    (level - thresh) / -drift + 1))
                if k <= 0:
                    return 0
            if st.out_mem is not None:
                drift = rate.get(st.out_mem, 0.0)
                if drift > 0:
                    level = occupancy[st.out_mem] + partial.get(st.out_mem,
                                                                0.0)
                    cap_px, out_thr = st.out_cap, st.out_thr
                    k = min(k, _prefix_bound(
                        lambda j: cap_px - (level + (j - 1) * drift)
                        >= out_thr,
                        (cap_px - level - out_thr) / drift + 1))
                    if k <= 0:
                        return 0
            for name in st.gated_mems:
                partial[name] = partial.get(name, 0.0) - st.thresh
        elif st.consumed < st.input_target:
            # Blocked: some condition must keep failing through the jump.
            blocked_for = -1
            for name in st.gated_mems:
                level = occupancy[name] + partial.get(name, 0.0)
                if level >= st.thresh:
                    continue  # not what blocks it at cycle+1
                drift = rate.get(name, 0.0)
                if drift <= 0:
                    blocked_for = cap
                    break
                thresh = st.thresh
                blocked_for = max(blocked_for, _prefix_bound(
                    lambda j: level + (j - 1) * drift < thresh,
                    (thresh - level) / drift + 1))
            if blocked_for < cap and st.out_mem is not None:
                level = occupancy[st.out_mem] + partial.get(st.out_mem, 0.0)
                if st.out_cap - level < st.out_thr:
                    drift = rate.get(st.out_mem, 0.0)
                    if drift >= 0:
                        blocked_for = cap
                    else:
                        cap_px, out_thr = st.out_cap, st.out_thr
                        blocked_for = max(blocked_for, _prefix_bound(
                            lambda j: cap_px - (level + (j - 1) * drift)
                            < out_thr,
                            (out_thr - (cap_px - level)) / -drift + 1))
            if blocked_for < 0:
                return 0  # nothing blocks it at cycle+1: pattern changes
            k = min(k, blocked_for)
            if k <= 0:
                return 0
        # consumed >= target and not issuing: never issues again — no bound.

        # --- delivery side ------------------------------------------------
        if st.delivered is not None:
            amount = st.delivered
            if st.runs:
                first, count = st.runs[0][0], st.runs[0][1]
                if first != cycle + 1:
                    return 0  # gap before the next matured entry
                if not (len(st.runs) == 1 and st.issued):
                    k = min(k, count)  # head run drains without refill
            elif not (st.issued and st.ns == 1):
                return 0  # pipeline drained: no further deliveries
            if amount == st.out_thr and amount > 0:
                produced, out_px = st.produced, st.out_px
                k = min(k, _prefix_bound(
                    lambda j: out_px - (produced + (j - 1) * amount)
                    >= amount,
                    (out_px - produced) / amount))
            elif amount != 0:
                return 0  # final partial delivery: next amount differs
            if k <= 0:
                return 0
        elif st.runs:
            k = min(k, st.runs[0][0] - (cycle + 1))
            if k <= 0:
                return 0
        # no pending and not delivering: stays silent — no bound.
    return k


def _apply_jump(states: List["_EventState"], occupancy: Dict[str, float],
                cycle: int, k: int) -> None:
    """Advance every stage ``k`` cycles of its recorded action in one step."""
    for st in states:
        if st.issued:
            st.consumed += k * st.inc
            for name in st.gated_mems:
                occupancy[name] -= k * st.thresh
            if st.runs:
                st.runs[-1][1] += k  # tail stays contiguous with new issues
            # else: single-cycle pipeline delivering as it issues (ns == 1);
            # entries never accumulate, so there is no run to extend.
        if st.delivered is not None:
            amount = st.delivered
            st.produced += k * amount
            if st.out_mem is not None and amount > 0:
                occupancy[st.out_mem] += k * amount
            if st.runs:
                head = st.runs[0]
                head[0] += k
                head[1] -= k
                if not head[1]:
                    st.runs.popleft()


def cycle_accurate_latency(graph: StageGraph, system: SensorSystem,
                           mapping: Mapping,
                           max_cycles: int = 50_000_000, *,
                           resolved: Optional[Dict[str, object]] = None
                           ) -> float:
    """Event-driven digital simulation (uniform clock required).

    Returns ``T_D`` in seconds.  Raises :class:`StallError` on deadlock —
    which corresponds to the paper's stall scenarios — and
    :class:`SimulationError` when units run on different clocks (the
    analytical model handles those).  Cycle counts, stall cycles, and
    error messages are identical to :func:`_cycle_accurate_reference`;
    only the wall-clock cost differs.
    """
    if resolved is None:
        resolved = mapping.resolve(graph, system)
    analog_fed = _analog_fed_memories(graph, resolved)
    states, clock = _build_event_states(graph, resolved, analog_fed)
    if not states:
        return 0.0
    if not all(st.exactly_representable() for st in states):
        return _cycle_accurate_reference(graph, system, mapping, max_cycles,
                                         resolved=resolved)

    occupancy: Dict[str, float] = {m.name: 0.0 for m in system.memories}
    window = 4 * max(st.ns for st in states) + 16

    if all(st.done for st in states):
        return 0.0
    if max_cycles <= 0:
        raise SimulationError(
            f"cycle-accurate simulation exceeded {max_cycles} cycles")
    _precheck_ports(states)

    cycle = 0
    last_progress = 0
    while not all(st.done for st in states):
        if cycle >= max_cycles:
            raise SimulationError(
                f"cycle-accurate simulation exceeded {max_cycles} cycles")
        progressed = _event_cycle(states, occupancy, cycle)
        if progressed:
            last_progress = cycle
        elif cycle - last_progress > window:
            blocked = [st.stage.name for st in states if not st.done]
            raise StallError(
                f"digital pipeline deadlocked at cycle {cycle}; "
                f"blocked stages: {blocked}")
        cycle += 1

        # Skip ahead: cap at the max-cycles guard and, for an idle
        # pattern, at the watchdog trip point, so the guarded exact
        # iterations above fire at the reference cycle numbers.
        cap = max_cycles - cycle
        if not progressed:
            cap = min(cap, last_progress + window + 1 - cycle)
        if cap <= 0:
            continue
        k = _plan_jump(states, occupancy, cycle - 1, cap)
        if k > 0:
            _apply_jump(states, occupancy, cycle - 1, k)
            if progressed:
                last_progress = cycle - 1 + k
            cycle += k
    return cycle / clock


# --- reference per-cycle simulator (ground truth) ----------------------------


def _cycle_accurate_reference(graph: StageGraph, system: SensorSystem,
                              mapping: Mapping,
                              max_cycles: int = 50_000_000, *,
                              resolved: Optional[Dict[str, object]] = None
                              ) -> float:
    """The original per-cycle loop: O(cycles x stages x depth), exact.

    Kept as the ground truth for the event-driven simulator's
    equivalence and speed tests, and as the fallback for
    configurations with non-integral occupancy bookkeeping.
    """
    if resolved is None:
        resolved = mapping.resolve(graph, system)
    states: List[_PipelineState] = []
    clock = None
    for stage in graph.topological_order:
        unit = resolved[stage.name]
        if not isinstance(unit, ComputeUnit):
            continue
        if clock is None:
            clock = unit.clock_hz
        elif abs(clock - unit.clock_hz) > 1e-6:
            raise SimulationError(
                "cycle-accurate simulation requires a uniform digital clock")
        states.append(_PipelineState(stage=stage, unit=unit))
    if not states:
        return 0.0

    occupancy: Dict[str, float] = {m.name: 0.0 for m in system.memories}
    analog_fed = _analog_fed_memories(graph, resolved)

    cycle = 0
    last_progress = 0
    while not all(s.done for s in states):
        if cycle >= max_cycles:
            raise SimulationError(
                f"cycle-accurate simulation exceeded {max_cycles} cycles")
        progressed = False
        for state in states:
            progressed |= _step_stage(state, occupancy, analog_fed)
        # Deliver pipeline outputs that matured this cycle.
        for state in states:
            progressed |= _deliver_outputs(state, occupancy, cycle)
        if progressed:
            last_progress = cycle
        elif cycle - last_progress > 4 * max(s.unit.num_stages
                                             for s in states) + 16:
            blocked = [s.stage.name for s in states if not s.done]
            raise StallError(
                f"digital pipeline deadlocked at cycle {cycle}; "
                f"blocked stages: {blocked}")
        cycle += 1
    return cycle / clock


def _step_stage(state: _PipelineState, occupancy: Dict[str, float],
                analog_fed: set) -> bool:
    """Try to issue one cycle of work; returns whether progress was made."""
    if state.consumed >= state.input_target and not state.pending \
            and state.produced >= state.stage.output_pixels:
        return False
    if state.consumed >= state.input_target:
        return False
    unit = state.unit
    need = unit.input_throughput
    # Port limits: words movable per cycle bound the consumable pixels.
    for memory in unit.input_memories:
        max_words = memory.num_read_ports
        if need > max_words * memory.pixels_per_read_word * len(
                unit.input_memories):
            raise StallError(
                f"memory {memory.name!r} has too few read ports for unit "
                f"{unit.name!r} ({need} pixels/cycle needed)")
    available = all(
        memory.name in analog_fed
        or occupancy[memory.name] >= need / max(1, len(unit.input_memories))
        for memory in unit.input_memories)
    if unit.input_memories and not available:
        return False
    out_memory = unit.output_memory
    if out_memory is not None:
        space = (out_memory.capacity_pixels
                 - occupancy[out_memory.name])
        if space < unit.output_throughput:
            return False
    for memory in unit.input_memories:
        if memory.name not in analog_fed:
            occupancy[memory.name] -= need / max(1, len(unit.input_memories))
    state.consumed += max(1, need)
    state.pending.append(unit.num_stages)
    return True


def _deliver_outputs(state: _PipelineState, occupancy: Dict[str, float],
                     cycle: int) -> bool:
    """Age the pipeline; deliver outputs whose latency elapsed."""
    if not state.pending:
        return False
    state.pending = deque(age - 1 for age in state.pending)
    delivered = False
    while state.pending and state.pending[0] <= 0:
        state.pending.popleft()
        produced = min(state.unit.output_throughput,
                       state.stage.output_pixels - state.produced)
        state.produced += produced
        if state.unit.output_memory is not None and produced > 0:
            occupancy[state.unit.output_memory.name] += produced
        delivered = True
    return delivered
