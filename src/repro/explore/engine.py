"""The exploration engine: spaces in, Pareto-analyzed results out.

:func:`explore` reads a :class:`~repro.explore.space.ParameterSpace` as
columns, groups its points by their builder values, builds each group's
design once (a callable or a registered use-case name), runs each group
on the vector path (:mod:`repro.explore.vector`) or through
:meth:`repro.api.Simulator.run_many` — cached, deduplicated, parallel —
and evaluates the objective :class:`~repro.explore.metrics.Metric` values
on every feasible point.  Points whose builder, simulation, or metric
extraction fails with a framework error stay in the result as typed
infeasible points: infeasibility boundaries are data, not crashes.

The :class:`ExplorationResult` exposes N-objective Pareto frontier
extraction, dominance ranking (one-pass non-dominated sorting), and a
per-point energy-bottleneck annotation, and round-trips through JSON
under the ``repro.explore/1`` schema.
"""

from __future__ import annotations

import json
import math
import operator
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from itertools import chain, groupby, repeat
from typing import (Any, Callable, Dict, Iterator, List, Optional, Sequence,
                    Tuple, Union)

from repro.api.design import Design, require_design
from repro.api.registry import build_usecase
from repro.api.result import OptionColumns, SimOptions, SimResult
from repro.api.simulator import Simulator
from repro.energy.report import EnergyReport
from repro.exceptions import CamJError, ConfigurationError, \
    SerializationError, VectorUnsupported
from repro.explore.annotate import Bottleneck, top_bottleneck
from repro.resilience.faults import get_injector
from repro.explore.metrics import Metric, metric as _lookup_metric, \
    resolve_metrics
from repro.explore.space import OPTIONS_PREFIX, ParameterSpace, \
    SpaceColumns

#: Schema tag of a serialized exploration result.
EXPLORATION_SCHEMA = "repro.explore/1"

#: The per-batch resilience counters an exploration aggregates.
RESILIENCE_COUNTERS = ("retries", "timeouts", "pool_rebuilds",
                       "quarantined")

#: Per-engine point tallies an exploration reports: how many points the
#: structure-of-arrays fast path evaluated vs. how many went through the
#: per-point object path (``run_many``).  Under ``engine="object"`` both
#: stay zero — nothing was routed.
ENGINE_COUNTERS = ("vectorized", "fallback")

#: Valid values of the ``engine`` parameter.
ENGINE_CHOICES = ("auto", "vector", "object")

#: Objectives used when the caller names none: the Sec. 6 trade-off
#: (energy vs. power density) plus the latency the frame budget gates.
DEFAULT_OBJECTIVES = ("energy_per_frame", "power_density", "latency")

Builder = Union[str, Callable[..., Design]]


# --- N-objective dominance -------------------------------------------------

def _goal_keys(vectors: Sequence[Sequence[float]], goals: Sequence[str]
               ) -> List[Optional[Tuple[float, ...]]]:
    """Validated :func:`_sort_key` per vector; None for NaN vectors."""
    bad_goals = [goal for goal in goals if goal not in ("min", "max")]
    if bad_goals:
        raise ConfigurationError(
            f"goals must be 'min' or 'max', got {sorted(set(bad_goals))}")
    for vector in vectors:
        if len(vector) != len(goals):
            raise ConfigurationError(
                f"objective vectors must match the goal list: "
                f"{len(vector)} values vs {len(goals)} goals")
    return [None if any(math.isnan(value) for value in vector)
            else _sort_key(vector, goals) for vector in vectors]


def dominates(a: Sequence[float], b: Sequence[float],
              goals: Sequence[str]) -> bool:
    """Strict Pareto dominance of vector ``a`` over ``b``.

    ``a`` dominates ``b`` when it is no worse on every objective and
    strictly better on at least one, where "better" follows each
    objective's goal (``"min"`` or ``"max"``).  Ties — equal on every
    objective — dominate in neither direction.  Vectors containing NaN
    are incomparable: they never dominate and are never dominated.
    """
    ours, theirs = _goal_keys((a, b), goals)
    return None not in (ours, theirs) and ours != theirs \
        and all(map(operator.le, ours, theirs))


def _sort_key(vector: Sequence[float], goals: Sequence[str]
              ) -> Tuple[float, ...]:
    """Goal-adjusted vector: ascending sort puts better points first."""
    return tuple(-value if goal == "max" else value
                 for value, goal in zip(vector, goals))


def pareto_indices(vectors: Sequence[Sequence[float]],
                   goals: Sequence[str]) -> List[int]:
    """Indices of the non-dominated vectors, deterministically ordered.

    The order is by goal-adjusted objective vector (first objective
    first), index as the final tie-break — stable across runs and input
    permutations of equal multisets.  NaN-containing vectors are never
    part of the frontier.
    """
    ranks = dominance_ranks(vectors, goals)
    return sorted((index for index, rank in enumerate(ranks) if rank == 0),
                  key=lambda index: (_sort_key(vectors[index], goals), index))


def dominance_ranks(vectors: Sequence[Sequence[float]],
                    goals: Sequence[str]) -> List[Optional[int]]:
    """Non-dominated sorting rank per vector (0 = Pareto frontier).

    Rank ``k`` is the frontier of what remains after peeling ranks
    ``0..k-1`` away; NaN-containing vectors get rank ``None``.  One
    sorted pass (ENS-BS, Zhang et al., IEEE TEC 2015) puts each point in
    the first front holding no dominator of it, found by binary search.
    Dominators sort first, so "front k holds one" is monotone in k and
    the first objective needs no test.  Up to three objectives, a front
    answers through its staircase (:class:`_Staircase`); beyond, by a
    scan of its members.
    """
    ranks: List[Optional[int]] = [None] * len(vectors)
    keyed = sorted((key, index) for index, key
                   in enumerate(_goal_keys(vectors, goals)) if key is not None)
    front_type = _Staircase if len(goals) <= 3 else _ScanFront
    pad = (0.0,) * max(0, 3 - len(goals))
    fronts: List[Any] = []
    for key, index in keyed:
        key += pad
        low, high = 0, len(fronts)
        while low < high:
            middle = (low + high) // 2
            if fronts[middle].dominates(key):
                low = middle + 1
            else:
                high = middle
        if low == len(fronts):
            fronts.append(front_type())
        fronts[low].add(key)
        ranks[index] = low
    return ranks


class _ScanFront:
    """A front as its member list, tested member by member."""

    __slots__ = ("members",)

    def __init__(self):
        self.members: List[Tuple[Tuple[float, ...], Tuple[float, ...]]] = []

    def dominates(self, key: Tuple[float, ...]) -> bool:
        # ``!=`` keeps exact ties apart.  Newest members sit closest in
        # sort order, so test them first.
        tail = key[1:]
        return any(all(map(operator.le, other_tail, tail)) and other != key
                   for other, other_tail in reversed(self.members))

    def add(self, key: Tuple[float, ...]) -> None:
        self.members.append((key, key[1:]))


class _Staircase:
    """A front of (at most) three objectives ``(a, b, c)`` — fewer are
    padded with zeros — kept as the staircase of its minimal ``(b, c)``
    tails: ``b`` strictly rising, ``c`` strictly falling, each with the
    ``a`` of its member.

    Every earlier point has ``a`` no larger, so a member dominates
    ``(a, b, c)`` iff its tail is no larger and it is not an exact tie.
    The rightmost step with ``b' <= b`` has the least ``c'`` of them.  A
    front holds no dominance, so its members with one tail share their
    ``a``: a step whose tail equals the query's dominates iff its ``a``
    is smaller.
    """

    __slots__ = ("firsts", "seconds", "thirds")

    def __init__(self):
        self.firsts: List[float] = []
        self.seconds: List[float] = []
        self.thirds: List[float] = []

    def dominates(self, key: Tuple[float, ...]) -> bool:
        first, second, third = key
        step = bisect_right(self.seconds, second) - 1
        if step < 0:
            return False
        least = self.thirds[step]
        return least < third or (least == third and (
            self.seconds[step] < second or self.firsts[step] < first))

    def add(self, key: Tuple[float, ...]) -> None:
        first, second, third = key
        seconds, thirds = self.seconds, self.thirds
        step = bisect_right(seconds, second)
        if step and thirds[step - 1] <= third:
            return  # a step already covers this tail
        low = high = bisect_left(seconds, second)
        while high < len(thirds) and thirds[high] >= third:
            high += 1
        seconds[low:high] = [second]
        thirds[low:high] = [third]
        self.firsts[low:high] = [first]


# --- result model ---------------------------------------------------------

@dataclass(frozen=True)
class ExplorationPoint:
    """One evaluated point of an exploration.

    ``params`` are the space coordinates that produced the point;
    ``metrics`` maps objective names to values (empty when infeasible).
    The in-memory :class:`EnergyReport` is attached for downstream
    analysis but is deliberately not part of the serialized form — the
    metrics are the durable record.
    """

    params: Dict[str, Any]
    metrics: Dict[str, float] = field(default_factory=dict)
    design_name: Optional[str] = None
    design_hash: Optional[str] = None
    failure_type: Optional[str] = None
    failure: Optional[str] = None
    bottleneck: Optional[Bottleneck] = None
    report: Optional[EnergyReport] = field(default=None, repr=False,
                                           compare=False)

    @property
    def feasible(self) -> bool:
        return self.failure is None

    def objective_vector(self, objectives: Sequence[Metric]
                         ) -> Tuple[float, ...]:
        """The point's values for ``objectives``, in order."""
        return tuple(self.metrics[objective.name]
                     for objective in objectives)

    def label(self) -> str:
        """Compact ``name=value`` rendering of the coordinates."""
        return " ".join(f"{name}={value}"
                        for name, value in self.params.items())

    def to_dict(self) -> Dict[str, Any]:
        return {
            "params": dict(self.params),
            "design": self.design_name,
            "design_hash": self.design_hash,
            "feasible": self.feasible,
            "metrics": dict(self.metrics),
            "failure": ({"type": self.failure_type, "message": self.failure}
                        if self.failure is not None else None),
            "bottleneck": (self.bottleneck.to_dict()
                           if self.bottleneck is not None else None),
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "ExplorationPoint":
        if not isinstance(payload, dict):
            raise SerializationError(
                f"exploration point must be an object, "
                f"got {type(payload).__name__}")
        failure = payload.get("failure")
        if failure is not None and not isinstance(failure, dict):
            raise SerializationError(
                f"exploration point failure must be an object or null, "
                f"got {type(failure).__name__}")
        bottleneck = payload.get("bottleneck")
        try:
            return cls(
                params=dict(payload["params"]),
                metrics=dict(payload["metrics"]),
                design_name=payload.get("design"),
                design_hash=payload.get("design_hash"),
                failure_type=(failure or {}).get("type"),
                failure=(failure or {}).get("message"),
                bottleneck=(Bottleneck.from_dict(bottleneck)
                            if bottleneck is not None else None))
        except (KeyError, TypeError, ValueError, AttributeError,
                ConfigurationError) as error:
            raise SerializationError(
                f"malformed exploration point: {error}") from error


#: One entry of a result's ordered point store: a single
#: :class:`ExplorationPoint`, or a :class:`~repro.explore.block.PointBlock`
#: of vector-evaluated rows.
Segment = Union[ExplorationPoint, "PointBlock"]


def _segment_points(segments: Sequence[Segment]) -> List[ExplorationPoint]:
    points: List[ExplorationPoint] = []
    for segment in segments:
        if type(segment) is ExplorationPoint:
            points.append(segment)
        else:
            points.extend(segment.points())
    return points


class ExplorationResult:
    """Everything one exploration produced, Pareto analysis included.

    The points are held as an ordered list of *segments*: the vector
    engine's column blocks (:class:`~repro.explore.block.PointBlock`)
    and single :class:`ExplorationPoint` values (object-path and
    infeasible points).  ``points`` builds the full point list on first
    access and keeps it; the Pareto analysis and :meth:`to_json` read
    the segments, so ranking and writing a document build no point
    objects.  A result made from ``points=`` has one segment per point.

    ``resilience`` tallies the fault-tolerance events the run absorbed
    (``retries``/``timeouts``/``pool_rebuilds``/``quarantined`` — see
    :class:`repro.api.simulator.BatchStats`); all zeros on a healthy
    run, so healthy documents stay byte-identical across retries of
    the same study.  ``engines`` tallies how many points each
    evaluation engine handled (``vectorized``/``fallback`` — see
    :data:`ENGINE_COUNTERS`); old documents without the key load as
    all zeros.
    """

    def __init__(self, name: str, objectives: List[Metric],
                 options: SimOptions,
                 points: Optional[List[ExplorationPoint]] = None,
                 resilience: Optional[Dict[str, int]] = None,
                 engines: Optional[Dict[str, int]] = None,
                 *, segments: Optional[List[Segment]] = None):
        if (points is None) == (segments is None):
            raise ConfigurationError(
                "an exploration result takes exactly one of points= "
                "or segments=")
        self.name = name
        self.objectives = objectives
        self.options = options
        self._points = points
        self._segments = points if segments is None else segments
        self.resilience = resilience if resilience is not None \
            else dict.fromkeys(RESILIENCE_COUNTERS, 0)
        self.engines = engines if engines is not None \
            else dict.fromkeys(ENGINE_COUNTERS, 0)

    def __repr__(self) -> str:
        return (f"ExplorationResult(name={self.name!r}, "
                f"objectives={[o.name for o in self.objectives]}, "
                f"points={len(self.points)})")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ExplorationResult):
            return NotImplemented
        return (self.name, self.objectives, self.options, self.points,
                self.resilience, self.engines) == (
            other.name, other.objectives, other.options, other.points,
            other.resilience, other.engines)

    @property
    def points(self) -> List[ExplorationPoint]:
        """Every point, in space order (built on first access)."""
        if self._points is None:
            self._points = _segment_points(self._segments)
        return self._points

    @property
    def goals(self) -> Tuple[str, ...]:
        return tuple(objective.goal for objective in self.objectives)

    @property
    def feasible_points(self) -> List[ExplorationPoint]:
        return [point for point in self.points if point.feasible]

    @property
    def infeasible_points(self) -> List[ExplorationPoint]:
        return [point for point in self.points if not point.feasible]

    # --- Pareto analysis --------------------------------------------------

    def _vectors(self) -> List[Optional[Tuple[float, ...]]]:
        """Each point's objective vector (None when infeasible)."""
        vectors: List[Optional[Tuple[float, ...]]] = []
        for segment in self._segments:
            if type(segment) is not ExplorationPoint:
                vectors.extend(segment.vectors(self.objectives))
            elif segment.feasible:
                vectors.append(segment.objective_vector(self.objectives))
            else:
                vectors.append(None)
        return vectors

    def frontier_indices(self) -> List[int]:
        """Indices (into ``points``) of the Pareto frontier, in
        deterministic objective order."""
        return self._frontier_from(self.dominance_ranks())

    def _frontier_from(self, ranks: List[Optional[int]]) -> List[int]:
        """The rank-0 indices, ordered like :func:`pareto_indices`."""
        vectors = self._vectors()
        goals = self.goals
        return sorted((index for index, rank in enumerate(ranks)
                       if rank == 0),
                      key=lambda index: (_sort_key(vectors[index], goals),
                                         index))

    def frontier(self) -> List[ExplorationPoint]:
        """The non-dominated feasible points, deterministically ordered."""
        return [self.points[index] for index in self.frontier_indices()]

    def dominance_ranks(self) -> List[Optional[int]]:
        """Per-point non-dominated-sorting rank (None for infeasible)."""
        vectors = self._vectors()
        local = iter(dominance_ranks(
            [vector for vector in vectors if vector is not None],
            self.goals))
        return [None if vector is None else next(local)
                for vector in vectors]

    # --- serialization ----------------------------------------------------

    def _payload(self, points: Any) -> Dict[str, Any]:
        ranks = self.dominance_ranks()
        return {
            "schema": EXPLORATION_SCHEMA,
            "name": self.name,
            "objectives": [{"name": objective.name, "goal": objective.goal,
                            "unit": objective.unit}
                           for objective in self.objectives],
            "options": self.options.to_dict(),
            "points": points,
            "frontier": self._frontier_from(ranks),
            "ranks": ranks,
            "resilience": {key: int(self.resilience.get(key, 0))
                           for key in RESILIENCE_COUNTERS},
            "engines": {key: int(self.engines.get(key, 0))
                        for key in ENGINE_COUNTERS},
        }

    def to_dict(self) -> Dict[str, Any]:
        """Versioned JSON-compatible payload (schema ``repro.explore/1``).

        The frontier indices and dominance ranks are derived from the
        points deterministically, so a round-tripped result re-emits the
        identical document.
        """
        return self._payload([point.to_dict() for point in self.points])

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "ExplorationResult":
        """Inverse of :meth:`to_dict` (frontier/ranks are recomputed).

        Raises :class:`SerializationError` for any payload that
        :meth:`to_json` could not write back.
        """
        if not isinstance(payload, dict):
            raise SerializationError(
                f"exploration payload must be an object, "
                f"got {type(payload).__name__}")
        if payload.get("schema") != EXPLORATION_SCHEMA:
            raise SerializationError(
                f"expected schema {EXPLORATION_SCHEMA!r}, "
                f"got {payload.get('schema')!r}")
        try:
            raw_objectives = payload["objectives"]
            raw_points = payload["points"]
            options = SimOptions.from_dict(payload["options"])
            name = payload["name"]
        except KeyError as error:
            raise SerializationError(
                f"exploration payload missing {error}") from error
        for key, raw in (("objectives", raw_objectives),
                         ("points", raw_points)):
            if not isinstance(raw, list):
                raise SerializationError(
                    f"exploration {key} must be a list, "
                    f"got {type(raw).__name__}")
        objectives = [_metric_from_payload(raw) for raw in raw_objectives]
        points = [ExplorationPoint.from_dict(raw) for raw in raw_points]
        for index, point in enumerate(points):
            if not point.feasible:
                continue
            for objective in objectives:
                value = point.metrics.get(objective.name)
                if not isinstance(value, (int, float)):
                    raise SerializationError(
                        f"feasible exploration point {index} needs a "
                        f"number for objective {objective.name!r}, "
                        f"got {value!r}")
        raw_resilience = payload.get("resilience") or {}
        resilience = {key: int(raw_resilience.get(key, 0))
                      for key in RESILIENCE_COUNTERS}
        raw_engines = payload.get("engines") or {}
        engines = {key: int(raw_engines.get(key, 0))
                   for key in ENGINE_COUNTERS}
        return cls(name=name, objectives=objectives, options=options,
                   points=points, resilience=resilience, engines=engines)

    def to_json(self, indent: Optional[int] = 2) -> str:
        """The result as a canonical JSON document: exactly
        ``json.dumps(self.to_dict(), indent=indent, sort_keys=True)``,
        written from the segments (:mod:`repro.explore.document`)."""
        from repro.explore.document import write_document
        return write_document(self._payload(None), "points",
                              self._row_runs(), indent)

    def _row_runs(self) -> Iterator[Any]:
        for segment in self._segments:
            if type(segment) is ExplorationPoint:
                yield segment.to_dict()
            else:
                yield from segment.runs()

    @classmethod
    def from_json(cls, document: str) -> "ExplorationResult":
        """Inverse of :meth:`to_json`."""
        try:
            payload = json.loads(document)
        except json.JSONDecodeError as error:
            raise SerializationError(
                f"exploration document is not valid JSON: {error}") \
                from error
        return cls.from_dict(payload)

    def save(self, path) -> None:
        """Write the result to ``path`` as JSON."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(self.to_json() + "\n")

    @classmethod
    def load(cls, path) -> "ExplorationResult":
        """Read a result written by :meth:`save`."""
        with open(path, "r", encoding="utf-8") as handle:
            return cls.from_json(handle.read())

    # --- rendering --------------------------------------------------------

    def to_table(self) -> str:
        """Human-readable summary: all points, frontier starred."""
        ranks = self.dominance_ranks()
        frontier = set(self._frontier_from(ranks))
        lines = [f"Exploration — {self.name}: {len(self.points)} points, "
                 f"{len(self.feasible_points)} feasible, "
                 f"{len(self.infeasible_points)} infeasible, "
                 f"frontier {len(frontier)}",
                 "objectives: " + ", ".join(
                     f"{objective.name} [{objective.unit}, {objective.goal}]"
                     for objective in self.objectives)]
        for index, point in enumerate(self.points):
            if not point.feasible:
                lines.append(f"    {point.label():<36} infeasible: "
                             f"{point.failure_type}: {point.failure}")
                continue
            marker = "*" if index in frontier else " "
            values = "  ".join(
                f"{objective.name}={point.metrics[objective.name]:.6g}"
                for objective in self.objectives)
            lines.append(f"  {marker} {point.label():<36} {values}  "
                         f"[rank {ranks[index]}]")
        annotated = [self.points[index] for index in
                     sorted(frontier)
                     if self.points[index].bottleneck is not None]
        if annotated:
            lines.append("frontier bottlenecks:")
            for point in annotated:
                bottleneck = point.bottleneck
                lines.append(
                    f"    {point.label():<36} {bottleneck.name} "
                    f"({bottleneck.category.value}, "
                    f"{100 * bottleneck.share:.1f}%) -> {bottleneck.hint}")
        return "\n".join(lines)


def _metric_from_payload(raw: Dict[str, Any]) -> Metric:
    """A Metric from its serialized (name, goal, unit) triple.

    The extractor is re-attached from the registry when the name is
    still registered; otherwise the metric deserializes as data-only and
    raises if re-evaluated.
    """
    if not isinstance(raw, dict) or "name" not in raw:
        raise SerializationError(
            f"objective spec must be an object with a 'name', got {raw!r}")
    name = raw["name"]
    elementwise = False
    try:
        registered = _lookup_metric(name)
        extract = registered.extract
        elementwise = registered.elementwise
    except ConfigurationError:
        def extract(design, report, _name=name):
            raise ConfigurationError(
                f"metric {_name!r} was deserialized without an extractor; "
                f"register it before re-evaluating")
    return Metric(name=name, unit=raw.get("unit", ""), extract=extract,
                  goal=raw.get("goal", "min"), elementwise=elementwise)


# --- the engine -----------------------------------------------------------

class ExplorationInterrupted(Exception):
    """An exploration stopped early because ``should_stop()`` said so.

    Deliberately *not* a :class:`CamJError`: interruption is control
    flow (a cancelled job, a shutting-down daemon), never an infeasible
    point or a framework failure, so nothing that maps framework errors
    onto typed results may swallow it.
    """


def _runs(columns: List[Tuple[str, List[Any]]], start: int, stop: int
          ) -> List[Tuple[tuple, int, int]]:
    """``(builder values, first, stop)`` of each run of consecutive
    points ``start`` to ``stop`` with equal values in ``columns`` (one
    run per point where the values do not compare)."""
    keys = zip(*[column[start:stop] for _, column in columns]) \
        if columns else repeat((), stop - start)
    runs: List[Tuple[tuple, int, int]] = []
    first = start
    try:
        for key, run in groupby(keys):
            runs.append((key, first, first + len(list(run))))
            first = runs[-1][2]
    except (TypeError, ValueError):  # e.g. arrays: == is not a bool
        runs = [(values, row, row + 1) for row, values in zip(
            range(start, stop),
            zip(*[column[start:stop] for _, column in columns]))]
    return runs


def resolve_builder(builder: Builder, name: Optional[str]
                    ) -> Tuple[Callable[..., Any], str]:
    """The build callable and result name of an exploration.

    A use-case name builds through :func:`build_usecase` and names the
    result after itself; a callable builds directly and names the result
    after its ``__name__`` (``"exploration"`` for a lambda or a nameless
    callable).  An explicit ``name`` always wins.
    """
    if isinstance(builder, str):
        return (lambda **params: build_usecase(builder, **params),
                name if name is not None else builder)
    default = getattr(builder, "__name__", "exploration")
    return builder, name if name is not None else (
        "exploration" if default == "<lambda>" else default)


def explore(space: ParameterSpace,
            builder: Builder,
            objectives: Sequence[Union[str, Metric]] = DEFAULT_OBJECTIVES,
            options: Optional[SimOptions] = None,
            simulator: Optional[Simulator] = None,
            name: Optional[str] = None,
            annotate: bool = True,
            engine: str = "auto") -> ExplorationResult:
    """Run ``builder`` across ``space`` and analyze the objectives.

    Parameters
    ----------
    space:
        The parameter space to enumerate.  Names prefixed ``options.``
        override :class:`SimOptions` fields per point; all other names
        are keyword arguments of the builder.
    builder:
        ``builder(**params) -> Design``, or the name of a registered use
        case.  A builder that raises a :class:`CamJError` or returns
        anything but a :class:`Design` makes that point infeasible.
    objectives:
        Metric names (or :class:`Metric` values) to evaluate per point.
    options:
        Base simulation options; defaults to the simulator session's.
    simulator:
        An existing session to run (and cache) through.  Passing one
        session across repeated explorations reuses its worker pool and
        both result-cache tiers; a session created here is closed before
        returning.
    annotate:
        Attach the top energy bottleneck to every feasible point.
    engine:
        Point-evaluation strategy.  ``"auto"`` (default) routes groups
        of :data:`~repro.explore.vector.VECTOR_MIN_POINTS`-or-more
        points that share one design and vary only in options to the
        vector path (:mod:`repro.explore.vector`), which hands each
        group to the simulation engine as one call over columns of
        operating points — bit-identical results, orders of magnitude
        faster — and everything else to the object path, one engine
        call per point.  ``"vector"`` vectorizes every group it can
        (any size) and raises :class:`ConfigurationError` when an
        objective is not ``elementwise``; unsupported *designs* still
        fall back per group.  ``"object"`` runs every point on its
        own.

    Builder failures, simulation failures (timing, stalls), and metric
    extraction failures are all :class:`CamJError`-typed infeasible
    points in the result, never exceptions — infeasibility boundaries
    are exactly what an exploration maps out.
    """
    return explore_stream(space, builder, objectives=objectives,
                          options=options, simulator=simulator, name=name,
                          annotate=annotate, engine=engine)


def explore_stream(space: ParameterSpace,
                   builder: Builder,
                   objectives: Sequence[Union[str, Metric]]
                   = DEFAULT_OBJECTIVES,
                   options: Optional[SimOptions] = None,
                   simulator: Optional[Simulator] = None,
                   name: Optional[str] = None,
                   annotate: bool = True,
                   chunk_size: Optional[int] = None,
                   on_progress: Optional[Callable[
                       [List[ExplorationPoint], int, int, int], None]] = None,
                   should_stop: Optional[Callable[[], bool]] = None,
                   engine: str = "auto") -> ExplorationResult:
    """:func:`explore`, incrementally: points surface as they complete.

    The space is evaluated in chunks of ``chunk_size`` points
    (``None``: one chunk, exactly :func:`explore`).  After each chunk,
    ``on_progress(points, completed, total, cache_hits)`` receives the
    chunk's finished :class:`ExplorationPoint` values (in space order),
    the running completed count, the total point count, and how many of
    the chunk's simulations were served from the result cache — the
    hook streaming consumers (the ``repro serve`` daemon, JSONL
    writers) build on.  Before every chunk ``should_stop()`` is
    consulted; returning true aborts the exploration by raising
    :class:`ExplorationInterrupted`, which is how daemon jobs cancel
    mid-flight without losing the session.

    Results, ordering, and infeasible-point semantics are identical to
    :func:`explore`; chunking only changes *when* work becomes visible.
    """
    resolved_objectives = resolve_metrics(objectives)
    if chunk_size is not None and chunk_size < 1:
        raise ConfigurationError(
            f"chunk_size must be >= 1 or None, got {chunk_size}")
    if engine not in ENGINE_CHOICES:
        raise ConfigurationError(
            f"engine must be one of {ENGINE_CHOICES}, got {engine!r}")
    if engine == "vector":
        from repro.explore import vector as vector_engine
        support_error = vector_engine.vector_support_error(
            resolved_objectives)
        if support_error is not None:
            raise ConfigurationError(
                f"engine 'vector' is unavailable: {support_error}")
    owns_session = simulator is None
    simulator = simulator if simulator is not None else Simulator(options)
    base_options = options if options is not None else simulator.options
    build, result_name = resolve_builder(builder, name)

    option_fields = set(base_options.to_dict())
    bad_axes = [axis for axis in space.names
                if axis.startswith(OPTIONS_PREFIX)
                and axis[len(OPTIONS_PREFIX):] not in option_fields]
    if bad_axes:
        raise ConfigurationError(
            f"unknown SimOptions axes {sorted(bad_axes)}; "
            f"supported: {sorted(OPTIONS_PREFIX + f for f in option_fields)}")

    columns = SpaceColumns(space.names, space.columns())
    total = len(columns.columns[0])
    step = chunk_size if chunk_size is not None else max(total, 1)
    built_cache: Dict[tuple, Union[Design, CamJError]] = {}
    space_options = OptionColumns(base_options, columns.options, total)
    segments: List[Segment] = []
    streamed: List[ExplorationPoint] = []
    completed = 0
    resilience = dict.fromkeys(RESILIENCE_COUNTERS, 0)
    engines = dict.fromkeys(ENGINE_COUNTERS, 0)
    # A session we created exists only for this exploration: release its
    # pool workers once done (caller-provided sessions keep theirs for
    # the next exploration).
    try:
        for start in range(0, total, step):
            if should_stop is not None and should_stop():
                raise ExplorationInterrupted(
                    f"exploration {result_name!r} stopped after "
                    f"{completed}/{total} points")
            stop = min(start + step, total)
            chunk_segments, chunk_hits, chunk_resilience, chunk_engines = \
                _run_chunk(
                    columns, space_options, start, stop, build, built_cache,
                    simulator, resolved_objectives, annotate, engine)
            segments.extend(chunk_segments)
            completed = stop
            for counter, count in chunk_resilience.items():
                resilience[counter] += count
            for counter, count in chunk_engines.items():
                engines[counter] += count
            if on_progress is not None:
                chunk_points = _segment_points(chunk_segments)
                streamed.extend(chunk_points)
                on_progress(chunk_points, completed, total, chunk_hits)
    except (KeyboardInterrupt, SystemExit):
        # Interrupted mid-exploration (Ctrl-C, SIGTERM): reclaim pool
        # workers without draining the remaining queue, so no process
        # workers linger behind a dying CLI.
        simulator.close(cancel_pending=True)
        raise
    finally:
        if owns_session:
            simulator.close()

    result = ExplorationResult(name=result_name,
                               objectives=resolved_objectives,
                               options=base_options, segments=segments,
                               resilience=resilience, engines=engines)
    if on_progress is not None:
        result._points = streamed  # built for the callbacks already
    return result


def _run_chunk(columns: SpaceColumns, space_options: OptionColumns,
               start: int, stop: int,
               build: Callable[..., Design],
               built_cache: Dict[tuple, Union[Design, CamJError]],
               simulator: Simulator,
               objectives: Sequence[Metric],
               annotate: bool,
               engine: str) -> Tuple[List[Segment], int, Dict[str, int],
                                     Dict[str, int]]:
    """Build, simulate, and evaluate space points ``start`` to ``stop``.

    ``space_options`` holds the exploration's base options and its
    ``options.`` columns; the chunk's rows are validated once per
    column.  Runs of points with equal builder values group together
    and each group builds its design once — ``built_cache`` persists
    across chunks, so option-only sweeps build exactly one design no
    matter how finely the run is chunked.  Groups that built one design
    object evaluate together: on the vector path as one
    :class:`OptionColumns` group, on the object path with one
    :class:`SimOptions` per point.  Returns the chunk's segments (in
    space order), its result-cache hit count, the resilience counters
    its one ``run_many`` batch reported, and the engine counters
    (vector-evaluated vs object-fallback point counts).
    """
    # Phase 1: options, then one design per group of builder values.  A
    # bad options value or a failing builder makes typed infeasible
    # points; a point whose options fail never reaches the builder.
    failed: List[Tuple[int, CamJError]] = [
        (start + row, error) for row, error
        in space_options.take(range(start, stop)).errors().items()]
    bad = {index for index, _ in failed}
    groups: Dict[Any, List[Tuple[int, int]]] = {}
    for key, first, end in _runs(columns.builder, start, stop):
        try:
            groups.setdefault(key, []).append((first, end))
        except TypeError:  # an unhashable value: a design per point
            groups.update((row, [(row, row + 1)])
                          for row in range(first, end))
    designs: Dict[int, Tuple[Design, List[Sequence[int]]]] = {}
    for key, runs in groups.items():
        indices = [row for first, end in runs for row in range(first, end)
                   if row not in bad] if bad or len(runs) > 1 \
            else range(*runs[0])
        if not indices:
            continue
        design = built_cache.get(key)
        if design is None:
            values = key if type(key) is tuple else \
                [column[key] for _, column in columns.builder]
            try:
                design = require_design(build(**{
                    name: value for (name, _), value
                    in zip(columns.builder, values)}), build)
            except CamJError as error:
                design = error
            if type(key) is tuple:
                built_cache[key] = design
        if isinstance(design, CamJError):
            failed.extend((index, design) for index in indices)
        else:
            designs.setdefault(id(design), (design, []))[1].append(indices)

    # Phase 2a: the vector fast path takes eligible groups (numeric-only
    # variation) out of the object batch entirely.  Fault injection
    # hooks the object execution path, which vectorized evaluation
    # would sidestep.
    engines = dict.fromkeys(ENGINE_COUNTERS, 0)
    pieces: List[Tuple[int, Segment]] = []
    object_rows: List[Tuple[int, Design]] = []
    vector_hits = 0
    vector_mod = None
    if engine != "object" and not get_injector().active:
        from repro.explore import vector as vector_mod
        if vector_mod.vector_support_error(objectives) is not None:
            vector_mod = None
    cycle = space_options.columns.get("cycle_accurate")
    for design, parts in designs.values():
        # Groups that built one design object merge, in space order.
        indices = parts[0] if len(parts) == 1 \
            else sorted(chain.from_iterable(parts))
        if vector_mod is None or (cycle is None
                                  and space_options.base.cycle_accurate):
            fast: Sequence[int] = ()
        else:
            fast = indices if cycle is None else \
                [index for index in indices if not cycle[index]]
        if fast and len(fast) >= (1 if engine == "vector"
                                  else vector_mod.VECTOR_MIN_POINTS):
            try:
                group_pieces, hits = vector_mod.evaluate_group(
                    simulator, design, fast, space_options.take(fast),
                    columns, objectives, annotate)
            except VectorUnsupported:
                # The screen rejected the design: the object path takes
                # the group, under engine="vector" too.
                pass
            else:
                for segment_indices, segment in group_pieces:
                    _place(pieces, segment_indices, segment)
                vector_hits += hits
                engines["vectorized"] += len(fast)
                indices = [index for index in indices if cycle[index]] \
                    if len(fast) < len(indices) else []
        object_rows.extend((index, design) for index in indices)

    # Phase 2b: one parallel, deduplicated batch over the buildable
    # points the vector path did not claim, in space order.
    object_rows.sort(key=operator.itemgetter(0))
    jobs = [(design, space_options[index]) for index, design in object_rows]
    results = simulator.run_many(jobs) if jobs else []
    if engine != "object":
        engines["fallback"] = len(jobs)
    # Per-result ``cached`` flags are race-free under concurrent batches
    # on a shared session, unlike the session-wide counters.  The batch
    # stats must be read *here*, right after our own run_many call (an
    # empty chunk never ran a batch, so its counters are all zero).
    chunk_hits = sum(1 for result in results if result.cached) + vector_hits
    resilience = dict.fromkeys(RESILIENCE_COUNTERS, 0)
    if jobs:
        stats = simulator.last_batch_stats
        if stats is not None:
            for counter in RESILIENCE_COUNTERS:
                resilience[counter] = getattr(stats, counter, 0)

    # Phase 3: evaluate objectives and annotate the rest, then merge
    # everything back into space order.
    for (index, design), params, result in zip(
            object_rows, columns.params([row[0] for row in object_rows]),
            results):
        pieces.append((index, _evaluate_point(params, design, result,
                                              objectives, annotate)))
    for (index, error), params in zip(
            failed, columns.params([row[0] for row in failed])):
        pieces.append((index, ExplorationPoint(
            params=params, failure_type=type(error).__name__,
            failure=str(error))))
    pieces.sort(key=operator.itemgetter(0))
    return [segment for _, segment in pieces], chunk_hits, resilience, \
        engines


def _place(pieces: List[Tuple[int, Segment]], slot_indices: List[int],
           segment: Segment) -> None:
    """Add ``segment`` at its (ascending) slot indices, cutting a block
    at every gap."""
    if type(segment) is ExplorationPoint \
            or slot_indices[-1] - slot_indices[0] == len(slot_indices) - 1:
        pieces.append((slot_indices[0], segment))
        return
    start = 0
    for row in range(1, len(slot_indices) + 1):
        if row == len(slot_indices) \
                or slot_indices[row] != slot_indices[row - 1] + 1:
            pieces.append((slot_indices[start], segment.slice(start, row)))
            start = row


def _evaluate_point(params: Dict[str, Any], design: Design,
                    result: SimResult, objectives: Sequence[Metric],
                    annotate: bool) -> ExplorationPoint:
    if not result.ok:
        return ExplorationPoint(
            params=params, design_name=design.name,
            design_hash=result.design_hash,
            failure_type=result.error_type, failure=result.failure)
    values: Dict[str, float] = {}
    for objective in objectives:
        try:
            values[objective.name] = objective.value(design, result.report)
        except CamJError as error:
            # A metric that cannot be computed on this design (e.g. a
            # power density without any on-chip area) makes the point
            # infeasible for this exploration, with the metric named.
            return ExplorationPoint(
                params=params, design_name=design.name,
                design_hash=result.design_hash,
                failure_type=type(error).__name__,
                failure=f"metric {objective.name!r}: {error}",
                report=result.report)
    return ExplorationPoint(params=params, metrics=values,
                            design_name=design.name,
                            design_hash=result.design_hash,
                            bottleneck=(top_bottleneck(result.report)
                                        if annotate else None),
                            report=result.report)
