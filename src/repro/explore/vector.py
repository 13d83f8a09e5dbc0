"""Column evaluation of a same-design group: the explore fast path.

Exploration grids routinely sweep *numeric knobs* over one built design
— frame rates, exposure slots — producing groups of points that share a
stage graph, mapping, and hardware but differ only in their options.
The object path simulates each such point on its own; this module hands
the whole group to the same engine as columns of operating points.  A
group arrives as an :class:`~repro.api.result.OptionColumns` — the
exploration's base options plus one column per ``options.`` axis,
sliced from the space's columns — and the space's param columns, and
is evaluated in four steps:

1. screen the design, once per content hash: only the stock analog
   array, component and cell types, and the stock memory leakage, are
   known to accept a column of delays;
2. probe the session result cache for the whole group, with the hits
   :meth:`Simulator.run` would give each point, and serve them: a
   group equal to the one its design's newest block was run for is that
   block whole plus the failures it recorded, compared as option
   columns; other block hits come back grouped by block;
3. simulate the rest with one engine call (:meth:`Simulator.run_block`)
   on the group's frame-rate and exposure-slot columns, which caches
   the rows that simulated as one column block
   (:class:`~repro.api.result.ResultBlock`) and each failed point as a
   plain result — a :class:`SimOptions` is built for failed rows only;
4. read the block: each ``elementwise`` metric's single extractor reads
   its column off the block's report and the top bottleneck is ranked
   column-wise, so the feasible rows reach the exploration result as
   one :class:`~repro.explore.block.PointBlock` holding the space's
   param columns and its rows of them, with no :class:`SimResult`,
   param dict or :class:`ExplorationPoint` per row.  The block hits of
   step 2 are read off their blocks the same way.

One engine evaluates one point or a column, so vector points equal
object-path points bit for bit — same metrics, same infeasibility
boundaries, same :class:`TimingError` messages; ``tests/test_vector.py``
checks it.  A design the screen rejects raises
:class:`~repro.exceptions.VectorUnsupported` before any observable cache
side effect, and the explore engine falls back to
:meth:`Simulator.run_many` for the group; objectives that are not
``elementwise`` send every group there.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.api.design import Design
from repro.api.result import OptionColumns, ResultBlock
from repro.api.simulator import Simulator
from repro.columns import dense
from repro.exceptions import CamJError, VectorUnsupported
from repro.explore.annotate import top_bottleneck
from repro.explore.block import PointBlock
from repro.explore.engine import ExplorationPoint, Segment, _evaluate_point
from repro.explore.metrics import Metric
from repro.explore.space import SpaceColumns
from repro.hw.analog.array import AnalogArray
from repro.hw.analog.cells import DynamicCell, NonLinearCell, StaticCell
from repro.hw.analog.components import AnalogComponent
from repro.hw.digital.memory import DigitalMemory

#: Smallest same-design group the ``auto`` engine vectorizes.  Tiny
#: groups gain nothing over the object path (screening plus array setup
#: costs more than a handful of scalar runs), and below this bound the
#: object path's per-point reports stay attached — the behavior existing
#: small sweeps (and their tests) expect.  ``engine="vector"`` ignores
#: the bound and vectorizes any group it can.
VECTOR_MIN_POINTS = 4

#: One evaluated piece of a group: its space indices and their segment.
Piece = Tuple[Sequence[int], Segment]

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


def evaluate_group(simulator: Simulator, design: Design,
                   indices: Sequence[int], options: OptionColumns,
                   space: SpaceColumns, objectives: Sequence[Metric],
                   annotate: bool) -> Tuple[List[Piece], int]:
    """Evaluate one same-design group of points on the vector path.

    Space point ``indices[i]`` (ascending) is evaluated under row ``i``
    of ``options``, whose rows are valid; ``space`` holds the param
    columns the group's points are read from.  Returns the group's
    points as ``(space indices, segment)`` pieces — a
    :class:`PointBlock` of feasible rows, or one
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
    targets, group = _serve_cached(simulator, design, design_hash, indices,
                                   options, space, objectives, annotate,
                                   pieces)
    hits = len(indices) - len(targets)
    if targets:
        block, failures = simulator.run_block(design, design_hash, group)
        if failures:
            failed = [targets[position] for position in failures]
            for target, point_params, result in zip(
                    failed, space.params(failed), failures.values()):
                pieces.append(([target], _evaluate_point(
                    point_params, design, result, objectives, annotate)))
            targets = [target for position, target in enumerate(targets)
                       if position not in failures]
        if block is not None:
            pieces.extend(_read_block(block, design, targets, None, space,
                                      objectives, annotate))
    return pieces, hits


def _serve_cached(simulator: Simulator, design: Design,
                  design_hash: Optional[str], indices: Sequence[int],
                  group: OptionColumns, space: SpaceColumns,
                  objectives: Sequence[Metric], annotate: bool,
                  pieces: List[Piece]
                  ) -> Tuple[Sequence[int], OptionColumns]:
    """Fill ``pieces`` with the group's cached points; returns the space
    indices and options of the points the cache did not serve.

    The object path's order: :meth:`Simulator.run` probes the cache
    before it executes anything, so cached points never touch checks or
    passes.  The probe hands back the block hits already grouped by
    block, so each block is read column-wise in one piece.
    """
    served, singles, pending = simulator.probe_results(group, design_hash)
    for position, result in singles.items():
        pieces.append(([indices[position]], _evaluate_point(
            space.params([indices[position]])[0], design, result,
            objectives, annotate)))
    for block, positions, rows in served:
        targets = indices if len(positions) == len(indices) \
            else [indices[position] for position in positions]
        pieces.extend(_read_block(block, design, targets, rows, space,
                                  objectives, annotate))
    if len(pending) == len(group):
        return indices, group
    return [indices[i] for i in pending], group.take(pending)


def _read_block(block: ResultBlock, design: Design, targets: Sequence[int],
                rows: Optional[List[int]], space: SpaceColumns,
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
                for target, point_params in zip(targets,
                                                space.params(targets))]
        values = dense(raw, size)
        metrics.append((values if rows is None else values[rows]).tolist())
    columns: Dict[str, Any] = {}
    if annotate:
        columns = dict(zip(("causes", "top", "energy", "share"),
                           top_bottleneck(report, size, rows)))
    return [(targets, PointBlock(
        space, targets, design.name, block.design_hash,
        tuple(objective.name for objective in objectives), metrics,
        **columns))]
