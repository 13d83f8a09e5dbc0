"""Structure-of-arrays batch evaluation: the explore fast path.

Exploration grids routinely sweep *numeric knobs* over one built design
— frame rates, exposure slots — producing groups of points that share a
stage graph, mapping, and hardware but differ only in
:class:`~repro.api.result.SimOptions`.  The object path simulates each
such point through the full engine; this module evaluates a whole group
at once:

1. the design is screened once, memoized per content hash: only the
   stock analog array, component and cell types, and the stock memory
   leakage, are known to accept a column of delays;
2. the design-only passes (timeline, analog usage, communication
   energy) run through the session's :class:`PassMemo` exactly like the
   engine would;
3. timing evaluates element-wise over per-point column vectors, and the
   scalar engine's own energy models — :func:`analog_energy` (through
   the A-Cell, component and array models), :func:`digital_energy` —
   build one :class:`EnergyReport` whose energies and rates are columns
   (:mod:`repro.columns`);
4. each ``elementwise`` metric's single extractor reads its column off
   that report, and the group's feasible rows go to the exploration
   result as one :class:`~repro.explore.block.PointBlock` — params,
   metric columns and bottleneck columns, no point object per row.

Equivalence contract: every float operation sequence of the scalar
engine is replayed element-wise, so vector-evaluated points are
*bit-identical* to object-path points — same metrics, same infeasibility
boundaries, same :class:`TimingError` messages — which the property
tests in ``tests/test_vector.py`` assert.  Designs, cells, or memories
that cannot be vectorized raise
:class:`~repro.exceptions.VectorUnsupported` during the screen (before
any observable cache side effect) and the engine falls back to
:meth:`Simulator.run_many` for the group; objectives that are not
``elementwise`` send every group there.

Cache semantics match the object path: every point probes the session
result cache first (hits counted, misses counted), and what the group
computed goes back to the cache.  The feasible rows are published as
one column block (:class:`~repro.api.result.ResultBlock`, through
:meth:`Simulator.offer_results`): the group's options, its column
report, its timing columns.  The group's :class:`PointBlock` is read off
that block, and a later group whose keys are block rows is read off it
the same way — metrics re-extracted column-wise, bottlenecks ranked
column-wise, both gathered by row — without building a
:class:`SimResult` or an :class:`ExplorationPoint` per point.  A scalar
:meth:`Simulator.run` or object-path probe of a block row materializes
that one result.  Failed points are small: they are offered as plain
results (:meth:`Simulator.offer_result`), cached under the object path's
rule, and handed back as single :class:`ExplorationPoint` values.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.api.design import Design
from repro.api.result import ResultBlock, SimOptions, SimResult
from repro.api.simulator import Simulator
from repro.energy.analog_model import analog_energy, analog_usage
from repro.energy.comm_model import communication_energy
from repro.energy.digital_model import digital_energy
from repro.energy.report import Category, EnergyReport
from repro.exceptions import CamJError, VectorUnsupported
from repro.explore.annotate import _HINTS
from repro.explore.block import PointBlock
from repro.explore.engine import ExplorationPoint, Segment, _evaluate_point
from repro.explore.metrics import Metric
from repro.hw.analog.array import AnalogArray
from repro.hw.analog.cells import DynamicCell, NonLinearCell, StaticCell
from repro.hw.analog.components import AnalogComponent
from repro.hw.digital.memory import DigitalMemory
from repro.sim.cycle_sim import simulate_digital
from repro.sim.delay import frame_budget, over_budget
from repro.sim.simulator import _run_pass

#: Smallest same-design group the ``auto`` engine vectorizes.  Tiny
#: groups gain nothing over the object path (screening plus array setup
#: costs more than a handful of scalar runs), and below this bound the
#: object path's per-point reports stay attached — the behavior existing
#: small sweeps (and their tests) expect.  ``engine="vector"`` ignores
#: the bound and vectorizes any group it can.
VECTOR_MIN_POINTS = 4

#: One evaluated piece of a group: its space indices and their segment.
Piece = Tuple[List[int], Segment]

#: Builds the param dicts of the points at some space indices.
Params = Callable[[Sequence[int]], List[Dict[str, Any]]]

_LOWERED_LIMIT = 128
#: Content hashes of the designs the screen admitted, most recent last.
#: perfbench's explore-grid cold guard reads it and its lock by name.
_lowered_cache: "OrderedDict[str, bool]" = OrderedDict()
_lowered_lock = threading.Lock()


def vector_support_error(objectives: Sequence[Metric]) -> Optional[str]:
    """Why the vector path cannot serve these objectives; None if it can."""
    missing = sorted(objective.name for objective in objectives
                     if not objective.elementwise)
    if missing:
        return (f"objective(s) {missing} are not elementwise; register "
                f"the metric with elementwise=True or use the object "
                f"engine")
    return None


_STOCK_CELLS = (DynamicCell, StaticCell, NonLinearCell)


def _screen_design(design: Design, design_hash: Optional[str]) -> None:
    """Admit a design to the vector path, or raise VectorUnsupported.

    The stock analog arrays, components and cells, and the stock
    :meth:`~repro.hw.digital.memory.DigitalMemory.leakage_energy`,
    evaluate a column of delays element-wise; a subclass may override
    them with code that does not, so the screen checks exact types.
    Pure over the design's *system* (no passes run, no cache touched),
    so eligibility is decided before the group produces any observable
    side effect.  Admissions are memoized per content hash.
    """
    if design_hash is not None:
        with _lowered_lock:
            if design_hash in _lowered_cache:
                _lowered_cache.move_to_end(design_hash)
                return
    for memory in design.system.memories:
        if getattr(type(memory), "leakage_energy", None) \
                is not DigitalMemory.leakage_energy:
            raise VectorUnsupported(
                f"memory {getattr(memory, 'name', memory)!r} overrides "
                f"leakage_energy")
    for array in design.system.analog_arrays:
        if type(array) is not AnalogArray:
            raise _custom_type("array", array)
        if not array.components:
            raise VectorUnsupported(
                f"array {array.name!r} has no components")
        for component, _ in array.components:
            if type(component) is not AnalogComponent:
                raise _custom_type("component", component)
            for usage in component.cell_usages:
                if type(usage.cell) not in _STOCK_CELLS:
                    raise _custom_type("cell", usage.cell)
    if design_hash is not None:
        with _lowered_lock:
            _lowered_cache[design_hash] = True
            while len(_lowered_cache) > _LOWERED_LIMIT:
                _lowered_cache.popitem(last=False)


def _custom_type(kind: str, model) -> VectorUnsupported:
    return VectorUnsupported(
        f"{kind} {getattr(model, 'name', model)!r} has custom type "
        f"{type(model).__name__}")


def _column(values, size: int):
    """A dense per-point column from a column or a design constant."""
    if isinstance(values, np.ndarray):
        return values
    return np.full(size, float(values))


def _error_point(params: Dict[str, Any], design: Design,
                 design_hash: Optional[str],
                 error: CamJError) -> ExplorationPoint:
    return ExplorationPoint(params=params, design_name=design.name,
                            design_hash=design_hash,
                            failure_type=type(error).__name__,
                            failure=str(error))


def _vector_bottlenecks(report: EnergyReport, size: int,
                        rows: Optional[List[int]]):
    """Per-point top energy bottleneck, mirroring identify_bottlenecks,
    as :class:`PointBlock` columns ``(causes, top, energy, share)`` of
    ``rows`` (None: every row, in order).

    The scalar ranking sorts (name, category) component totals by
    energy, descending and stable, and takes the head — equivalent to
    the first maximum in entry-insertion order, which is what a
    column-stacked argmax yields.  A row whose total energy is not
    positive has no bottleneck (``top`` None).
    """
    count = size if rows is None else len(rows)
    groups: "OrderedDict[Tuple[str, Category], Any]" = OrderedDict()
    for entry in report.entries:
        key = (entry.name, entry.category)
        groups[key] = groups.get(key, 0.0) + entry.energy
    if not groups:
        return (), [None] * count, [0.0] * count, [0.0] * count
    keys = list(groups)
    matrix = np.vstack([_column(groups[key], size) for key in keys])
    top = matrix.argmax(axis=0)
    top_energy = matrix[top, np.arange(size)]
    total = _column(report.total_energy, size)
    share = np.zeros(size)
    positive = total > 0.0
    np.divide(top_energy, total, out=share, where=positive)
    if rows is not None:
        top, top_energy, share, positive = \
            top[rows], top_energy[rows], share[rows], positive[rows]
    top_list = top.tolist()
    if not positive.all():
        top_list = [cause if keep else None
                    for cause, keep in zip(top_list, positive.tolist())]
    causes = [key + (_HINTS[key[1]],) for key in keys]
    return causes, top_list, top_energy.tolist(), share.tolist()


def evaluate_group(simulator: Simulator, design: Design,
                   indices: List[int], options: List[SimOptions],
                   params: Params, objectives: Sequence[Metric],
                   annotate: bool) -> Tuple[List[Piece], int]:
    """Evaluate one same-design group of points on the vector path.

    Space point ``indices[i]`` is evaluated under ``options[i]``;
    ``params(space indices)`` builds the param dicts of the points the
    group hands back.  Returns the group's points as ``(space indices,
    segment)`` pieces — a :class:`PointBlock` of feasible rows, or one
    :class:`ExplorationPoint` — plus the result-cache hit count.  Raises
    :class:`VectorUnsupported` — before any cache probe or pass runs —
    when the design fails the screen; the caller falls back to the
    object path with no counters disturbed.
    """
    design_hash = simulator.design_key(design)
    # Eligibility first: the screen inspects only the system, so an
    # unsupported design escapes here with zero observable side effects.
    _screen_design(design, design_hash)
    pieces: List[Piece] = []
    hits = _evaluate_screened(simulator, design, design_hash, indices,
                              options, params, objectives, annotate, pieces)
    return pieces, hits


def _evaluate_screened(simulator: Simulator, design: Design,
                       design_hash: Optional[str], indices: List[int],
                       group: List[SimOptions], params: Params,
                       objectives: Sequence[Metric], annotate: bool,
                       pieces: List[Piece]) -> int:
    """Fill ``pieces``; returns how many the result cache served.

    Group position ``i`` is space point ``indices[i]`` under options
    ``group[i]``.
    """

    def fail(positions: Sequence[int], error: CamJError) -> None:
        # A failure is cached under run()'s rule (permanent ones only).
        targets = [indices[i] for i in positions]
        for i, target, point_params in zip(positions, targets,
                                           params(targets)):
            options = group[i]
            pieces.append(([target], _error_point(point_params, design,
                                                  design_hash, error)))
            if design_hash is not None:
                simulator.offer_result((design_hash, options), SimResult(
                    design_name=design.name, options=options,
                    design_hash=design_hash, error=error))

    # Mirror the object path's order: run() probes the cache before it
    # executes anything, so cached points never touch checks or passes.
    # A design with nothing cached anywhere answers in one call, with
    # no per-key probing at all.
    if design_hash is not None \
            and simulator.design_probe_needed(design_hash, len(group)):
        keys = [(design_hash, options) for options in group]
        probed = simulator.probe_results(keys)
        pending: List[int] = []
        # Rows of cached column blocks are read column-wise, per block:
        # block -> (group positions, their rows).
        served: Dict[int, Tuple[ResultBlock, List[int], List[int]]] = {}
        for i, hit in enumerate(probed):
            if hit is None:
                pending.append(i)
            elif type(hit) is tuple:
                block, row = hit
                _, positions, rows = served.setdefault(id(block),
                                                       (block, [], []))
                positions.append(i)
                rows.append(row)
            else:
                pieces.append(([indices[i]], _evaluate_point(
                    params([indices[i]])[0], design, hit, objectives,
                    annotate)))
        for block, positions, rows in served.values():
            pieces.extend(_read_block(
                block, design, [indices[i] for i in positions], rows,
                params, objectives, annotate))
        hits = len(group) - len(pending)
        if not pending:
            return hits
    else:
        # Cold group (or unserializable design): every point is pending.
        hits = 0
        pending = list(range(len(group)))

    # Pre-simulation checks, once per design, session-deduplicated —
    # exactly the engine's prelude.  A check failure fails every
    # checked point with the same typed error the object path reports.
    survivors = pending
    if any(not group[i].skip_checks for i in pending):
        try:
            simulator.ensure_design_checked(design, design_hash)
        except CamJError as error:
            fail([i for i in pending if not group[i].skip_checks], error)
            survivors = [i for i in pending if group[i].skip_checks]
            if not survivors:
                return hits

    # Design-only passes through the session memo: an interleaved or
    # subsequent object-path run of this design reuses these outputs
    # (and vice versa), and pass_info() accounts them identically.
    memo, counters = simulator.pass_context(design, design_hash)
    try:
        resolved = design.resolved_units
        timeline = _run_pass(
            "timeline", memo, counters,
            lambda: simulate_digital(design.graph, design.system,
                                     design.mapping, resolved=resolved))
        participating = _run_pass(
            "analog_usage", memo, counters,
            lambda: analog_usage(design.graph, design.system,
                                 design.mapping, resolved=resolved))
    except CamJError as error:
        fail(survivors, error)
        return hits

    # Timing, vectorized (estimate_frame_timing element-wise).  Note
    # SimOptions validates frame_rate > 0 and exposure_slots >= 1, so
    # only the budget check can fail here.
    digital_latency = timeline.total_latency
    frame_rate_vec = np.array([float(group[i].frame_rate)
                                for i in survivors])
    frame_time_vec, budget = frame_budget(frame_rate_vec, digital_latency)
    feasible = budget > 0.0
    for position in np.flatnonzero(~feasible).tolist():
        i = survivors[position]
        fail([i], over_budget(group[i].frame_rate,
                              float(frame_time_vec[position]),
                              digital_latency))
    keep = np.flatnonzero(feasible)
    if not len(keep):
        return hits
    # Compact to the feasible subset (exact element copies, so the
    # downstream arithmetic is unchanged).
    feasible_survivors = survivors if len(keep) == len(survivors) \
        else [survivors[p] for p in keep.tolist()]
    frame_rate_f = frame_rate_vec[keep]
    frame_time_f = frame_time_vec[keep]
    budget_f = budget[keep]

    # Build the energy columns in the engine's entry order: analog,
    # digital, communication.
    base_slots = float(len(participating))
    slots_f = np.array([base_slots + group[i].exposure_slots
                        for i in feasible_survivors])
    delay_f = budget_f / slots_f
    report = EnergyReport(system_name=design.system.name,
                          frame_rate=frame_rate_f, frame_time=frame_time_f,
                          digital_latency=digital_latency,
                          analog_stage_delay=delay_f)
    try:
        report.extend(analog_energy(participating, delay_f))
        report.extend(digital_energy(design.system, timeline,
                                     frame_time_f))
        report.extend(_run_pass(
            "comm_energy", memo, counters,
            lambda: communication_energy(design.graph, design.system,
                                         design.mapping,
                                         resolved=resolved)))
    except CamJError as error:
        fail(feasible_survivors, error)
        return hits

    # The evaluated rows become one cached column block, and the
    # group's points are read off it exactly as a later replay reads
    # them.
    block = ResultBlock(design_name=design.name, design_hash=design_hash,
                        options=[group[i] for i in feasible_survivors],
                        report=report)
    simulator.offer_results(block)
    pieces.extend(_read_block(block, design,
                              [indices[i] for i in feasible_survivors],
                              None, params, objectives, annotate))
    return hits


def _read_block(block: ResultBlock, design: Design, targets: List[int],
                rows: Optional[List[int]], params: Params,
                objectives: Sequence[Metric],
                annotate: bool) -> List[Piece]:
    """The pieces of the space points ``targets`` served by the block's
    ``rows`` (None: every row, in order).

    Metrics and bottlenecks are computed column-wise over the whole
    block, then gathered by row into one :class:`PointBlock`.  A failing
    metric is design-wide here (per-point metric failures cannot arise
    from the built-in extractors), so it fails every served point with
    the object path's message — the simulation itself succeeded, which
    is why the block is cached.
    """
    size = len(block)
    report = block.report
    if rows == list(range(size)):
        rows = None
    metrics: List[List[float]] = []
    for objective in objectives:
        try:
            raw = objective.extract(design, report)
        except CamJError as error:
            failure = f"metric {objective.name!r}: {error}"
            failure_type = type(error).__name__
            return [([target], ExplorationPoint(
                params=point_params, design_name=design.name,
                design_hash=block.design_hash, failure_type=failure_type,
                failure=failure))
                for target, point_params in zip(targets, params(targets))]
        values = _column(raw, size)
        metrics.append((values if rows is None else values[rows]).tolist())
    columns: Dict[str, Any] = {}
    if annotate:
        columns = dict(zip(("causes", "top", "energy", "share"),
                           _vector_bottlenecks(report, size, rows)))
    return [(targets, PointBlock(
        params(targets), design.name, block.design_hash,
        tuple(objective.name for objective in objectives), metrics,
        **columns))]
