"""Variation-aware exploration: rank frontier points by robust objectives.

:func:`explore_robust` evaluates every point of a parameter space not
once but as a seed-addressed ensemble — the space is augmented with a
hidden sample axis (:data:`SAMPLE_AXIS`, the fastest-varying axis) and
pushed through the ordinary exploration engine, so chunking, streaming,
cancellation, the session cache, and the vector fast path all apply
unchanged; perturbed variants of one built design share a design object
per sample only when unperturbed, but perturbed ensembles of one point
still batch through ``run_many`` together.  Afterwards each point's
ensemble collapses to a single value per objective through a
*statistic* — ``"p95"``, ``"worst"``, ``"mean"``, ... — yielding a
plain :class:`~repro.explore.engine.ExplorationResult` whose Pareto
analysis now ranks designs by their behavior under variation.

With a zero-variation model every sample short-circuits to the nominal
design object and every statistic's degenerate-sample reduction returns
the nominal value exactly, so the reduced result is bit-identical to
the nominal :func:`~repro.explore.engine.explore` document.

The registered ``robust_yield`` metric (goal ``max``) reduces to the
feasible fraction of each point's ensemble, letting yield itself be an
exploration objective.
"""

from __future__ import annotations

import re
from typing import (Any, Callable, Dict, List, Mapping, Optional, Sequence,
                    Tuple, Union)

from repro.api.design import Design, require_design
from repro.api.result import SimOptions
from repro.api.simulator import Simulator
from repro.columns import total
from repro.exceptions import ConfigurationError
from repro.explore.engine import (DEFAULT_OBJECTIVES, ExplorationPoint,
                                  ExplorationResult, explore_stream,
                                  resolve_builder)
from repro.explore.metrics import Metric, register_metric, resolve_metrics
from repro.explore.space import ParameterSpace, choice, product
from repro.robust.variation import NOMINAL_SAMPLE, VariationModel, \
    perturb_design

#: The hidden, fastest-varying axis indexing ensemble members; value 0
#: is the nominal sample.
SAMPLE_AXIS = "robust.sample"

#: Named reduction statistics (percentiles ``pNN`` are also accepted).
STATISTICS = ("mean", "std", "min", "max", "worst", "best", "nominal")

_PERCENTILE_RE = re.compile(r"^p(\d{1,2})$")

#: Ensemble feasibility as an objective: constant 1.0 on any single
#: nominal evaluation, reduced to the feasible sample fraction by
#: :func:`explore_robust`.
ROBUST_YIELD = register_metric(Metric(
    name="robust_yield", unit="fraction", goal="max",
    extract=lambda design, report: 1.0,
    elementwise=True,
    description="Feasible fraction of a point's variation ensemble "
                "(1.0 for any feasible nominal evaluation)."))


def _parse_statistic(statistic: str) -> Union[str, float]:
    """Validate one statistic name; percentiles return their level."""
    match = _PERCENTILE_RE.match(statistic)
    if match:
        return int(match.group(1)) / 100.0
    if statistic not in STATISTICS:
        raise ConfigurationError(
            f"unknown robust statistic {statistic!r}; use one of "
            f"{STATISTICS} or a percentile like 'p95'")
    return statistic


def resolve_statistics(statistic: Union[str, Mapping[str, str]],
                       objectives: Sequence[Metric]
                       ) -> Dict[str, Union[str, float]]:
    """Per-objective reduction plan from a name or per-metric mapping."""
    if isinstance(statistic, str):
        parsed = _parse_statistic(statistic)
        return {objective.name: parsed for objective in objectives}
    if not isinstance(statistic, Mapping):
        raise ConfigurationError(
            f"statistic must be a name or a metric->name mapping, "
            f"got {type(statistic).__name__}")
    names = {objective.name for objective in objectives}
    unknown = set(statistic) - names
    if unknown:
        raise ConfigurationError(
            f"statistic mapping names non-objective metrics "
            f"{sorted(unknown)}; objectives: {sorted(names)}")
    plan = {objective.name: _parse_statistic("p95")
            for objective in objectives}
    for metric_name, stat_name in statistic.items():
        plan[metric_name] = _parse_statistic(stat_name)
    return plan


def _reduce(values: Sequence[float], statistic: Union[str, float],
            goal: str) -> float:
    """Collapse one ensemble's values; exact on degenerate samples."""
    from repro.robust.ensemble import quantile

    if statistic == "std":
        if min(values) == max(values):
            return 0.0
        mean = total(values) / len(values)
        return (total((value - mean) ** 2
                      for value in values) / len(values)) ** 0.5
    if min(values) == max(values):
        return values[0]
    if statistic == "mean":
        return total(values) / len(values)
    if statistic == "min":
        return min(values)
    if statistic == "max":
        return max(values)
    if statistic == "worst":
        return max(values) if goal == "min" else min(values)
    if statistic == "best":
        return min(values) if goal == "min" else max(values)
    return quantile(values, float(statistic))


def explore_robust(space: ParameterSpace,
                   builder: Union[str, Callable[..., Any]],
                   objectives: Sequence[Union[str, Metric]]
                   = DEFAULT_OBJECTIVES,
                   *,
                   variation: VariationModel,
                   samples: int = 16,
                   seed: int = 0,
                   statistic: Union[str, Mapping[str, str]] = "p95",
                   options: Optional[SimOptions] = None,
                   simulator: Optional[Simulator] = None,
                   name: Optional[str] = None,
                   annotate: bool = True,
                   engine: str = "auto",
                   chunk_size: Optional[int] = None,
                   on_progress: Optional[Callable[
                       [List[ExplorationPoint], int, int, int], None]] = None,
                   should_stop: Optional[Callable[[], bool]] = None
                   ) -> ExplorationResult:
    """Explore a space under variation and rank by robust objectives.

    Every space point is evaluated ``samples + 1`` times — the nominal
    design plus ``samples`` seed-addressed perturbations — and each
    objective collapses to its ``statistic`` over the perturbed
    ensemble (``samples=0`` degenerates to the nominal exploration).
    ``statistic`` is one name for all objectives or a per-objective
    mapping, e.g. ``{"energy_per_frame": "p95", "latency": "worst"}``;
    unlisted objectives default to ``p95``.

    A point whose *nominal* evaluation fails is infeasible with that
    failure.  Under ``"worst"``/``"best"`` any failed sample makes the
    point infeasible (a worst case that crashes has no bound); other
    statistics reduce over the feasible samples and only fail when none
    remain.  ``robust_yield`` always reduces to the feasible fraction.

    ``on_progress``/``should_stop``/``chunk_size`` follow
    :func:`~repro.explore.engine.explore_stream`, with totals counted
    in augmented (per-sample) evaluations.
    """
    if samples < 0:
        raise ConfigurationError(f"samples must be >= 0, got {samples}")
    if SAMPLE_AXIS in space.names:
        raise ConfigurationError(
            f"space already has an axis named {SAMPLE_AXIS!r}")
    resolved = resolve_metrics(objectives)
    plan = resolve_statistics(statistic, resolved)

    build, result_name = resolve_builder(builder, name)

    nominal_cache: Dict[Any, Design] = {}

    def robust_build(**params: Any) -> Design:
        sample = params.pop(SAMPLE_AXIS)
        try:
            key = tuple(sorted(params.items()))
            nominal = nominal_cache.get(key)
            if nominal is None:
                nominal = require_design(build(**params), build)
                nominal_cache[key] = nominal
        except TypeError:  # unhashable parameter values: rebuild
            nominal = require_design(build(**params), build)
        return perturb_design(nominal, variation.factors(seed, sample))

    sample_axis = choice(SAMPLE_AXIS,
                         list(range(NOMINAL_SAMPLE, samples + 1)))
    augmented = explore_stream(
        product(space, sample_axis), robust_build,
        objectives=resolved, options=options, simulator=simulator,
        name=result_name, annotate=annotate, chunk_size=chunk_size,
        on_progress=on_progress, should_stop=should_stop, engine=engine)

    width = samples + 1
    reduced_points = []
    for start in range(0, len(augmented.points), width):
        block = augmented.points[start:start + width]
        reduced_points.append(
            _reduce_point(block, resolved, plan, samples))
    return ExplorationResult(
        name=augmented.name, objectives=list(resolved),
        options=augmented.options, points=reduced_points,
        resilience=dict(augmented.resilience),
        engines=dict(augmented.engines))


def _reduce_point(block: Sequence[ExplorationPoint],
                  objectives: Sequence[Metric],
                  plan: Mapping[str, Union[str, float]],
                  samples: int) -> ExplorationPoint:
    """Collapse one point's ensemble block into a single point."""
    nominal = block[0]
    ensemble = list(block[1:]) if samples > 0 else [block[0]]
    params = {key: value for key, value in nominal.params.items()
              if key != SAMPLE_AXIS}
    if not nominal.feasible:
        return ExplorationPoint(
            params=params, design_name=nominal.design_name,
            design_hash=nominal.design_hash,
            failure_type=nominal.failure_type, failure=nominal.failure)
    feasible = [point for point in ensemble if point.feasible]
    values: Dict[str, float] = {}
    for objective in objectives:
        statistic = plan[objective.name]
        if objective.name == "robust_yield":
            values[objective.name] = (1.0 if len(feasible) == len(ensemble)
                                      else len(feasible) / len(ensemble))
            continue
        if statistic == "nominal":
            values[objective.name] = nominal.metrics[objective.name]
            continue
        if statistic in ("worst", "best") and len(feasible) != len(ensemble):
            first = next(point for point in ensemble if not point.feasible)
            return ExplorationPoint(
                params=params, design_name=nominal.design_name,
                design_hash=nominal.design_hash,
                failure_type="RobustEnsembleError",
                failure=f"statistic {statistic!r} for "
                        f"{objective.name!r} undefined: sample "
                        f"{first.params.get(SAMPLE_AXIS)} failed "
                        f"({first.failure_type}): {first.failure}")
        if not feasible:
            first = next(point for point in ensemble if not point.feasible)
            return ExplorationPoint(
                params=params, design_name=nominal.design_name,
                design_hash=nominal.design_hash,
                failure_type="RobustEnsembleError",
                failure=f"every sample failed; first "
                        f"({first.failure_type}): {first.failure}")
        values[objective.name] = _reduce(
            [point.metrics[objective.name] for point in feasible],
            statistic, objective.goal)
    return ExplorationPoint(
        params=params, metrics=values,
        design_name=nominal.design_name,
        design_hash=nominal.design_hash,
        bottleneck=nominal.bottleneck, report=nominal.report)
