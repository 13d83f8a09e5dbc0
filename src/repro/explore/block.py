"""Column blocks: the vector engine's exploration points, as columns.

A same-design group evaluated by :mod:`repro.explore.vector` reaches its
:class:`~repro.explore.engine.ExplorationResult` as one
:class:`PointBlock` — the space's param columns and the rows it holds of
them, one list per metric, and the bottleneck columns — instead of one
:class:`ExplorationPoint` per row.  The result ranks and writes
documents from these columns (:mod:`repro.explore.document` reads them
through :meth:`PointBlock.runs`) and builds the param dicts and point
objects only when ``result.points`` is read.
"""

from __future__ import annotations

from itertools import repeat
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.energy.report import Category
from repro.explore.annotate import Bottleneck
from repro.explore.engine import ExplorationPoint
from repro.explore.metrics import Metric
from repro.explore.space import SpaceColumns


def _new_point(params: Dict[str, Any], metrics: Dict[str, float],
               design_name: str, design_hash: Optional[str],
               bottleneck: Optional[Bottleneck]) -> ExplorationPoint:
    """A feasible :class:`ExplorationPoint`, built without the frozen
    dataclass ``__init__`` (one ``object.__setattr__`` per field is the
    single largest per-point cost at 10k+ points).  Every field is set
    explicitly; equality, hashing, and serialization are unaffected."""
    point = object.__new__(ExplorationPoint)
    point.__dict__.update(params=params, metrics=metrics,
                          design_name=design_name, design_hash=design_hash,
                          failure_type=None, failure=None,
                          bottleneck=bottleneck, report=None)
    return point


def _new_bottleneck(name: str, category: Category, energy: float,
                    share: float, hint: str) -> Bottleneck:
    """A :class:`Bottleneck` built the same fast way as :func:`_new_point`."""
    bottleneck = object.__new__(Bottleneck)
    bottleneck.__dict__.update(name=name, category=category, energy=energy,
                               share=share, hint=hint)
    return bottleneck


class PointBlock:
    """Feasible points of one design, evaluated together, as columns.

    The vector engine hands its rows over in this form (see
    :mod:`repro.explore.vector`): row ``i`` is point ``rows[i]`` of the
    space's param columns ``space``, and ``metrics`` holds one value
    list per name of ``metric_names``.  The top energy bottleneck of
    row ``i`` is ``causes[top[i]]`` — a ``(name, category, hint)``
    triple — with energy ``energy[i]`` and share ``share[i]``;
    ``top[i]`` is None where the row has none, and ``top`` itself is
    None when the exploration did not annotate.  :meth:`points` builds
    the param dicts and :class:`ExplorationPoint` values; the document
    writer and the Pareto analysis read the columns directly.
    """

    __slots__ = ("space", "rows", "design_name", "design_hash",
                 "metric_names", "metrics", "causes", "top", "energy",
                 "share")

    def __init__(self, space: SpaceColumns, rows: Sequence[int],
                 design_name: str, design_hash: Optional[str],
                 metric_names: Tuple[str, ...],
                 metrics: List[List[float]],
                 causes: Sequence[Tuple[str, Category, str]] = (),
                 top: Optional[List[Optional[int]]] = None,
                 energy: Optional[List[float]] = None,
                 share: Optional[List[float]] = None):
        self.space = space
        self.rows = rows
        self.design_name = design_name
        self.design_hash = design_hash
        self.metric_names = metric_names
        self.metrics = metrics
        self.causes = causes
        self.top = top
        self.energy = energy
        self.share = share

    def __len__(self) -> int:
        return len(self.rows)

    def _columns(self) -> Dict[str, List[float]]:
        """Metric name -> column (a repeated name keeps its last column,
        as the per-point metric dict does)."""
        return dict(zip(self.metric_names, self.metrics))

    def _bottleneck(self, row: int) -> Optional[Bottleneck]:
        cause = None if self.top is None else self.top[row]
        if cause is None:
            return None
        name, category, hint = self.causes[cause]
        return _new_bottleneck(name, category, self.energy[row],
                               self.share[row], hint)

    def point(self, row: int) -> ExplorationPoint:
        return _new_point(self.space.params(self.rows[row:row + 1])[0],
                          dict(zip(self.metric_names,
                                   [column[row] for column in self.metrics])),
                          self.design_name, self.design_hash,
                          self._bottleneck(row))

    def points(self) -> List[ExplorationPoint]:
        size = len(self)
        names = self.metric_names
        rows = zip(*self.metrics) if self.metrics else repeat((), size)
        bottlenecks = map(self._bottleneck, range(size)) \
            if self.top is not None else repeat(None, size)
        return [_new_point(params, dict(zip(names, values)),
                           self.design_name, self.design_hash, bottleneck)
                for params, values, bottleneck
                in zip(self.space.params(self.rows), rows, bottlenecks)]

    def vectors(self, objectives: Sequence[Metric]
                ) -> List[Tuple[float, ...]]:
        """Each row's objective vector, like
        :meth:`ExplorationPoint.objective_vector`."""
        columns = self._columns()
        picked = [columns[objective.name] for objective in objectives]
        return list(zip(*picked)) if picked else [()] * len(self)

    def slice(self, start: int, stop: int) -> "PointBlock":
        """Rows ``start`` to ``stop`` as a block of their own."""
        def cut(column):
            return None if column is None else column[start:stop]
        return PointBlock(self.space, self.rows[start:stop], self.design_name,
                          self.design_hash, self.metric_names,
                          [column[start:stop] for column in self.metrics],
                          self.causes, cut(self.top), cut(self.energy),
                          cut(self.share))

    def runs(self) -> List["_BlockRun"]:
        """The block as runs of same-shape rows for the document writer:
        every row has the space's param keys, so rows change shape only
        where a bottleneck appears or disappears."""
        top = self.top
        bounds = [0]
        if top is not None and None in top:
            bounds.extend(row for row in range(1, len(top))
                          if (top[row] is None) != (top[row - 1] is None))
        bounds.append(len(self))
        return [_BlockRun(self, start, stop)
                for start, stop in zip(bounds, bounds[1:])]


class _BlockRun:
    """Rows ``start`` to ``stop`` of a :class:`PointBlock`, one shape: a
    row run of :func:`repro.explore.document.write_document`."""

    #: Row leaves every row of a block shares.
    _SHARED = (("design",), ("design_hash",), ("feasible",), ("failure",),
               ("bottleneck",))

    def __init__(self, block: PointBlock, start: int, stop: int):
        self.block = block
        self.start = start
        self.size = stop - start
        self.prototype = block.point(start).to_dict()
        self._causes: Optional[List[Dict[str, Any]]] = None

    def row(self, index: int) -> Dict[str, Any]:
        return self.block.point(self.start + index).to_dict()

    def column(self, path: Tuple[Any, ...]) -> Optional[List[Any]]:
        block, rows = self.block, slice(self.start, self.start + self.size)
        key = path[0]
        if key == "params":
            return block.space.values(path[1], block.rows[rows])
        if key == "metrics":
            return block._columns()[path[1]][rows]
        if key == "bottleneck" and len(path) == 2:
            if path[1] in ("energy", "share"):
                return getattr(block, path[1])[rows]
            if self._causes is None:
                self._causes = [_new_bottleneck(name, category, 0.0, 0.0,
                                                hint).to_dict()
                                for name, category, hint in block.causes]
            values = [cause[path[1]] for cause in self._causes]
            return [values[cause] for cause in block.top[rows]]
        if path in self._SHARED:
            return None
        raise KeyError(f"no column for row path {path!r}")
