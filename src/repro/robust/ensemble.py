"""Ensemble runners: Monte Carlo, corners, sensitivity, worst case.

Each runner fans a family of perturbed designs through the session's
cached, pooled :meth:`~repro.api.simulator.Simulator.run_many` path and
reduces the evaluations into one :class:`RobustResult`, serialized as a
versioned ``repro.robust/1`` document:

* :func:`monte_carlo` — ``samples`` seed-addressed draws of a
  :class:`~repro.robust.variation.VariationModel`, reduced to per-metric
  :class:`Distribution` objects (mean/std/min/max/quantiles);
* :func:`corners` — a named or explicit corner list, with goal-aware
  worst/best bounds and the responsible corner attached;
* :func:`sensitivity` — one-at-a-time ``+/- delta*sigma`` excursions per
  parameter, ranked by elasticity (relative metric change per relative
  parameter change);
* :func:`worst_case` — sensitivity signs steer every parameter to its
  per-metric worst extreme (``cutoff*sigma`` for normal models), which
  is then evaluated and attached as a synthetic corner.

All runners share chunked execution with ``on_progress(completed,
total, cache_hits)`` callbacks and a ``should_stop`` hook that raises
:class:`~repro.explore.engine.ExplorationInterrupted` at the next chunk
boundary — exactly the daemon's cancellation contract.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import (Any, Callable, Dict, List, Mapping, Optional, Sequence,
                    Tuple, Union)

from repro.api.design import Design
from repro.api.result import SimOptions
from repro.api.simulator import Simulator
from repro.columns import total
from repro.exceptions import (CamJError, ConfigurationError,
                              SerializationError, SimulationError)
from repro.explore.engine import (DEFAULT_OBJECTIVES, RESILIENCE_COUNTERS,
                                  ExplorationInterrupted)
from repro.explore.metrics import Metric, resolve_metrics
from repro.robust.variation import Corner, VariationModel, corner_set, \
    perturb_design

#: Schema tag of a serialized robustness document.
ROBUST_SCHEMA = "repro.robust/1"

#: Default metrics an ensemble evaluates (the explore objectives).
DEFAULT_METRICS = DEFAULT_OBJECTIVES

#: Quantile levels every Monte Carlo distribution reports.
QUANTILE_LEVELS = (0.05, 0.25, 0.50, 0.75, 0.95)

#: At most this many per-sample failures are kept in the document.
MAX_FAILURES_KEPT = 32

#: Label of the unperturbed ensemble member.
NOMINAL_LABEL = "nominal"

def quantile(values: Sequence[float], level: float) -> float:
    """Linear-interpolation quantile of ``values`` (0 <= level <= 1)."""
    ordered = sorted(values)
    if not ordered:
        raise ConfigurationError("quantile of an empty sample")
    position = level * (len(ordered) - 1)
    low = math.floor(position)
    high = math.ceil(position)
    if low == high:
        return ordered[low]
    weight = position - low
    return ordered[low] * (1.0 - weight) + ordered[high] * weight


@dataclass(frozen=True)
class Distribution:
    """Summary statistics of one metric over an ensemble.

    A degenerate sample (every value identical — e.g. the
    zero-variation ensemble) reports that value exactly for every
    location statistic and an exact ``0.0`` spread, so nominal-path
    bit-identity survives the reduction arithmetic.
    """

    count: int
    mean: float
    std: float
    minimum: float
    maximum: float
    quantiles: Mapping[str, float]

    @classmethod
    def from_values(cls, values: Sequence[float]) -> "Distribution":
        if not values:
            raise ConfigurationError(
                "cannot summarize an empty sample")
        lowest, highest = min(values), max(values)
        if lowest == highest:
            return cls(count=len(values), mean=lowest, std=0.0,
                       minimum=lowest, maximum=highest,
                       quantiles={_quantile_key(level): lowest
                                  for level in QUANTILE_LEVELS})
        mean = math.fsum(values) / len(values)
        variance = math.fsum((value - mean) ** 2
                             for value in values) / len(values)
        return cls(count=len(values), mean=mean, std=math.sqrt(variance),
                   minimum=lowest, maximum=highest,
                   quantiles={_quantile_key(level): quantile(values, level)
                              for level in QUANTILE_LEVELS})

    def to_dict(self) -> Dict[str, Any]:
        return {"count": self.count, "mean": self.mean, "std": self.std,
                "min": self.minimum, "max": self.maximum,
                "quantiles": dict(self.quantiles)}

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "Distribution":
        try:
            return cls(count=payload["count"], mean=payload["mean"],
                       std=payload["std"], minimum=payload["min"],
                       maximum=payload["max"],
                       quantiles=dict(payload["quantiles"]))
        except (KeyError, TypeError) as error:
            raise SerializationError(
                f"malformed distribution: {error}") from error


def _quantile_key(level: float) -> str:
    return f"p{int(round(level * 100)):02d}"


@dataclass
class RobustResult:
    """Everything one robustness study produced, kind-tagged.

    ``accounting`` counts the perturbed evaluations only (the nominal
    run is reported separately in ``nominal``); ``resilience`` sums the
    fault-tolerance events the underlying batches absorbed.
    """

    kind: str
    name: str
    design_name: Optional[str]
    design_hash: Optional[str]
    options: SimOptions
    metrics: List[str]
    nominal: Dict[str, float]
    accounting: Dict[str, int]
    seed: Optional[int] = None
    samples: Optional[int] = None
    variation: Optional[VariationModel] = None
    distributions: Dict[str, Distribution] = field(default_factory=dict)
    corners: List[Dict[str, Any]] = field(default_factory=list)
    bounds: Dict[str, Dict[str, Any]] = field(default_factory=dict)
    sensitivities: Dict[str, List[Dict[str, Any]]] = field(
        default_factory=dict)
    failures: List[Dict[str, Any]] = field(default_factory=list)
    resilience: Dict[str, int] = field(
        default_factory=lambda: dict.fromkeys(RESILIENCE_COUNTERS, 0))

    def to_dict(self) -> Dict[str, Any]:
        return {
            "schema": ROBUST_SCHEMA,
            "kind": self.kind,
            "name": self.name,
            "design": self.design_name,
            "design_hash": self.design_hash,
            "options": self.options.to_dict(),
            "metrics": list(self.metrics),
            "nominal": dict(self.nominal),
            "accounting": dict(self.accounting),
            "seed": self.seed,
            "samples": self.samples,
            "variation": (self.variation.to_dict()
                          if self.variation is not None else None),
            "distributions": {name: dist.to_dict()
                              for name, dist in self.distributions.items()},
            "corners": [dict(outcome) for outcome in self.corners],
            "bounds": {name: dict(bound)
                       for name, bound in self.bounds.items()},
            "sensitivities": {name: [dict(entry) for entry in entries]
                              for name, entries
                              in self.sensitivities.items()},
            "failures": [dict(entry) for entry in self.failures],
            "resilience": dict(self.resilience),
        }

    def to_json(self, indent: Optional[int] = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "RobustResult":
        if not isinstance(payload, Mapping):
            raise SerializationError(
                f"robust document must be an object, "
                f"got {type(payload).__name__}")
        schema = payload.get("schema")
        if schema != ROBUST_SCHEMA:
            raise SerializationError(
                f"expected schema {ROBUST_SCHEMA!r}, got {schema!r}")
        try:
            variation = payload.get("variation")
            return cls(
                kind=payload["kind"],
                name=payload["name"],
                design_name=payload.get("design"),
                design_hash=payload.get("design_hash"),
                options=SimOptions.from_dict(payload.get("options", {})),
                metrics=list(payload["metrics"]),
                nominal=dict(payload["nominal"]),
                accounting=dict(payload["accounting"]),
                seed=payload.get("seed"),
                samples=payload.get("samples"),
                variation=(VariationModel.from_dict(variation)
                           if variation is not None else None),
                distributions={
                    name: Distribution.from_dict(raw)
                    for name, raw
                    in payload.get("distributions", {}).items()},
                corners=[dict(raw) for raw in payload.get("corners", [])],
                bounds={name: dict(raw)
                        for name, raw in payload.get("bounds", {}).items()},
                sensitivities={
                    name: [dict(entry) for entry in entries]
                    for name, entries
                    in payload.get("sensitivities", {}).items()},
                failures=[dict(raw) for raw in payload.get("failures", [])],
                resilience=dict(payload.get(
                    "resilience", dict.fromkeys(RESILIENCE_COUNTERS, 0))))
        except (KeyError, TypeError) as error:
            raise SerializationError(
                f"malformed robust document: {error}") from error

    def summary(self) -> str:
        """A terminal-friendly digest of the study."""
        lines = [f"{self.kind} study of {self.design_name!r} "
                 f"({self.accounting.get('total', 0)} evaluations, "
                 f"{self.accounting.get('failed', 0)} failed)"]
        for metric in self.metrics:
            parts = [f"nominal={self.nominal.get(metric):.6g}"
                     if metric in self.nominal else "nominal=n/a"]
            dist = self.distributions.get(metric)
            if dist is not None:
                parts.append(f"mean={dist.mean:.6g} std={dist.std:.6g} "
                             f"p95={dist.quantiles.get('p95'):.6g}")
            bound = self.bounds.get(metric)
            if bound is not None and bound.get("worst") is not None:
                worst = bound["worst"]
                parts.append(f"worst={worst.get('value'):.6g} "
                             f"@ {worst.get('corner')}")
            ranked = self.sensitivities.get(metric)
            if ranked:
                parts.append(f"top-sensitivity={ranked[0]['param']}")
            lines.append(f"  {metric}: " + "  ".join(parts))
        return "\n".join(lines)


# --- shared evaluation machinery -------------------------------------------

@dataclass
class _Evaluation:
    """One ensemble member's outcome."""

    label: str
    metrics: Dict[str, float] = field(default_factory=dict)
    failure_type: Optional[str] = None
    failure: Optional[str] = None

    @property
    def feasible(self) -> bool:
        return self.failure is None


ProgressHook = Callable[[int, int, int], None]


def _evaluate_ensemble(simulator: Simulator,
                       entries: Sequence[Tuple[str, Design]],
                       options: SimOptions,
                       metrics: Sequence[Metric],
                       chunk_size: Optional[int],
                       on_progress: Optional[ProgressHook],
                       should_stop: Optional[Callable[[], bool]],
                       resilience: Dict[str, int],
                       progress_offset: int = 0,
                       progress_total: Optional[int] = None
                       ) -> List[_Evaluation]:
    """Run labelled designs through ``run_many`` in cancelable chunks."""
    total = progress_total if progress_total is not None else len(entries)
    step = chunk_size if chunk_size is not None else max(len(entries), 1)
    if step < 1:
        raise ConfigurationError(
            f"chunk_size must be >= 1 or None, got {step}")
    evaluations: List[_Evaluation] = []
    completed = progress_offset
    for start in range(0, len(entries), step):
        if should_stop is not None and should_stop():
            raise ExplorationInterrupted(
                f"robust ensemble stopped after {completed} of "
                f"{total} evaluations")
        chunk = entries[start:start + step]
        results = simulator.run_many([design for _, design in chunk],
                                     options)
        stats = simulator.last_batch_stats
        hits = stats.cache_hits if stats is not None else 0
        if stats is not None:
            for counter in RESILIENCE_COUNTERS:
                resilience[counter] += getattr(stats, counter, 0)
        for (label, design), result in zip(chunk, results):
            evaluations.append(
                _evaluate_one(label, design, result, metrics))
        completed += len(chunk)
        if on_progress is not None:
            on_progress(completed, total, hits)
    return evaluations


def _evaluate_one(label: str, design: Design, result,
                  metrics: Sequence[Metric]) -> _Evaluation:
    if not result.ok:
        return _Evaluation(label=label, failure_type=result.error_type,
                           failure=result.failure)
    values: Dict[str, float] = {}
    for metric in metrics:
        try:
            values[metric.name] = metric.value(design, result.report)
        except CamJError as error:
            return _Evaluation(label=label,
                               failure_type=type(error).__name__,
                               failure=f"metric {metric.name!r}: {error}")
    return _Evaluation(label=label, metrics=values)


def _require_nominal(evaluation: _Evaluation, design: Design) -> None:
    if not evaluation.feasible:
        raise SimulationError(
            f"nominal design {design.name!r} is infeasible "
            f"({evaluation.failure_type}): {evaluation.failure}")


def _failure_entries(evaluations: Sequence[_Evaluation]
                     ) -> List[Dict[str, Any]]:
    entries = [{"label": evaluation.label,
                "type": evaluation.failure_type,
                "message": evaluation.failure}
               for evaluation in evaluations if not evaluation.feasible]
    return entries[:MAX_FAILURES_KEPT]


def _accounting(evaluations: Sequence[_Evaluation]) -> Dict[str, int]:
    ok = total(1 for evaluation in evaluations if evaluation.feasible)
    return {"total": len(evaluations), "ok": ok,
            "failed": len(evaluations) - ok}


def _session(simulator: Optional[Simulator],
             options: Optional[SimOptions]
             ) -> Tuple[Simulator, SimOptions, bool]:
    owns = simulator is None
    session = simulator if simulator is not None else Simulator(options)
    resolved = options if options is not None else session.options
    return session, resolved, owns


# --- runners ---------------------------------------------------------------

def monte_carlo(design: Design,
                variation: VariationModel,
                *,
                samples: int = 64,
                seed: int = 0,
                metrics: Sequence[Union[str, Metric]] = DEFAULT_METRICS,
                options: Optional[SimOptions] = None,
                simulator: Optional[Simulator] = None,
                name: Optional[str] = None,
                chunk_size: Optional[int] = None,
                on_progress: Optional[ProgressHook] = None,
                should_stop: Optional[Callable[[], bool]] = None
                ) -> RobustResult:
    """Sample ``variation`` ``samples`` times and reduce to distributions.

    Sample ``i`` (1-based) perturbs the design by
    ``variation.factors(seed, i)`` — each factor a pure function of
    ``(seed, i, parameter name)`` — so the ensemble is bit-identical
    across executors and restarts.  Distributions summarize the feasible
    perturbed samples; the nominal design is evaluated alongside and
    reported separately.
    """
    if samples < 1:
        raise ConfigurationError(f"samples must be >= 1, got {samples}")
    resolved_metrics = resolve_metrics(metrics)
    session, resolved_options, owns = _session(simulator, options)
    resilience = dict.fromkeys(RESILIENCE_COUNTERS, 0)
    try:
        entries = [(NOMINAL_LABEL, design)]
        entries += [(f"sample-{index}",
                     perturb_design(design, variation.factors(seed, index)))
                    for index in range(1, samples + 1)]
        evaluations = _evaluate_ensemble(
            session, entries, resolved_options, resolved_metrics,
            chunk_size, on_progress, should_stop, resilience)
    finally:
        if owns:
            session.close()
    nominal, sampled = evaluations[0], evaluations[1:]
    _require_nominal(nominal, design)
    distributions = {}
    for metric in resolved_metrics:
        values = [evaluation.metrics[metric.name]
                  for evaluation in sampled if evaluation.feasible]
        if values:
            distributions[metric.name] = Distribution.from_values(values)
    return RobustResult(
        kind="monte_carlo",
        name=name if name is not None else design.name,
        design_name=design.name,
        design_hash=design.content_hash,
        options=resolved_options,
        metrics=[metric.name for metric in resolved_metrics],
        nominal=dict(nominal.metrics),
        accounting=_accounting(sampled),
        seed=seed,
        samples=samples,
        variation=variation,
        distributions=distributions,
        failures=_failure_entries(sampled),
        resilience=resilience)


def _resolve_corners(corners_in: Union[str, Sequence[Corner], None]
                     ) -> List[Corner]:
    if corners_in is None:
        corners_in = "pvt"
    if isinstance(corners_in, str):
        return corner_set(corners_in)
    resolved = list(corners_in)
    if not resolved or not all(isinstance(corner, Corner)
                               for corner in resolved):
        raise ConfigurationError(
            "corners must be a named set or a non-empty list of Corner")
    names = [corner.name for corner in resolved]
    if len(set(names)) != len(names):
        raise ConfigurationError(
            f"corner names must be unique, got {names}")
    return resolved


def _goal_bounds(metric: Metric,
                 outcomes: Sequence[Tuple[str, Dict[str, float]]]
                 ) -> Optional[Dict[str, Any]]:
    """Goal-aware worst/best over feasible ``(corner, metrics)`` pairs."""
    values = [(metrics[metric.name], corner)
              for corner, metrics in outcomes if metric.name in metrics]
    if not values:
        return None
    high = max(values, key=lambda pair: pair[0])
    low = min(values, key=lambda pair: pair[0])
    worst, best = (high, low) if metric.goal == "min" else (low, high)
    return {"worst": {"value": worst[0], "corner": worst[1]},
            "best": {"value": best[0], "corner": best[1]}}


def corners(design: Design,
            corner_list: Union[str, Sequence[Corner], None] = "pvt",
            *,
            metrics: Sequence[Union[str, Metric]] = DEFAULT_METRICS,
            options: Optional[SimOptions] = None,
            simulator: Optional[Simulator] = None,
            name: Optional[str] = None,
            chunk_size: Optional[int] = None,
            on_progress: Optional[ProgressHook] = None,
            should_stop: Optional[Callable[[], bool]] = None
            ) -> RobustResult:
    """Evaluate named corners and report goal-aware worst/best bounds.

    ``corner_list`` is a registered set name (``"pvt"``) or an explicit
    list of :class:`~repro.robust.variation.Corner` values.  Bounds span
    the feasible corners plus the nominal point, each annotated with the
    responsible corner's name.
    """
    resolved_metrics = resolve_metrics(metrics)
    resolved_corners = _resolve_corners(corner_list)
    session, resolved_options, owns = _session(simulator, options)
    resilience = dict.fromkeys(RESILIENCE_COUNTERS, 0)
    try:
        entries = [(NOMINAL_LABEL, design)]
        entries += [(corner.name, perturb_design(design, corner.factors))
                    for corner in resolved_corners]
        evaluations = _evaluate_ensemble(
            session, entries, resolved_options, resolved_metrics,
            chunk_size, on_progress, should_stop, resilience)
    finally:
        if owns:
            session.close()
    nominal, at_corners = evaluations[0], evaluations[1:]
    _require_nominal(nominal, design)
    outcome_docs = []
    for corner, evaluation in zip(resolved_corners, at_corners):
        outcome_docs.append({
            "corner": corner.name,
            "factors": dict(corner.factors),
            "feasible": evaluation.feasible,
            "metrics": dict(evaluation.metrics),
            "failure": (None if evaluation.feasible else
                        {"type": evaluation.failure_type,
                         "message": evaluation.failure}),
        })
    feasible_outcomes = [(NOMINAL_LABEL, nominal.metrics)]
    feasible_outcomes += [(corner.name, evaluation.metrics)
                          for corner, evaluation
                          in zip(resolved_corners, at_corners)
                          if evaluation.feasible]
    bounds = {}
    for metric in resolved_metrics:
        bound = _goal_bounds(metric, feasible_outcomes)
        if bound is not None:
            bounds[metric.name] = bound
    return RobustResult(
        kind="corners",
        name=name if name is not None else design.name,
        design_name=design.name,
        design_hash=design.content_hash,
        options=resolved_options,
        metrics=[metric.name for metric in resolved_metrics],
        nominal=dict(nominal.metrics),
        accounting=_accounting(at_corners),
        corners=outcome_docs,
        bounds=bounds,
        failures=_failure_entries(at_corners),
        resilience=resilience)


def sensitivity(design: Design,
                variation: VariationModel,
                *,
                delta: float = 1.0,
                metrics: Sequence[Union[str, Metric]] = DEFAULT_METRICS,
                options: Optional[SimOptions] = None,
                simulator: Optional[Simulator] = None,
                name: Optional[str] = None,
                chunk_size: Optional[int] = None,
                on_progress: Optional[ProgressHook] = None,
                should_stop: Optional[Callable[[], bool]] = None
                ) -> RobustResult:
    """One-at-a-time ``+/- delta*sigma`` excursions, ranked by elasticity.

    Elasticity is the relative metric change per relative parameter
    change — ``((m+ - m-) / m_nominal) / (2 * delta * sigma)`` — so
    rankings are comparable across parameters with different spreads
    and, being seed-free central differences, stable under re-seeding
    by construction.  Parameters with zero sigma are skipped.
    """
    if not delta > 0:
        raise ConfigurationError(f"delta must be > 0, got {delta}")
    resolved_metrics = resolve_metrics(metrics)
    active = [param for param in variation.params
              if variation.sigma[param] > 0.0]
    session, resolved_options, owns = _session(simulator, options)
    resilience = dict.fromkeys(RESILIENCE_COUNTERS, 0)
    try:
        entries: List[Tuple[str, Design]] = [(NOMINAL_LABEL, design)]
        for param in active:
            shift = delta * variation.sigma[param]
            if shift >= 1.0:
                raise ConfigurationError(
                    f"delta={delta} drives {param!r} to factor <= 0; "
                    f"shrink delta or sigma")
            entries.append((f"{param}-",
                            perturb_design(design, {param: 1.0 - shift})))
            entries.append((f"{param}+",
                            perturb_design(design, {param: 1.0 + shift})))
        evaluations = _evaluate_ensemble(
            session, entries, resolved_options, resolved_metrics,
            chunk_size, on_progress, should_stop, resilience)
    finally:
        if owns:
            session.close()
    nominal, shifted = evaluations[0], evaluations[1:]
    _require_nominal(nominal, design)
    by_label = {evaluation.label: evaluation for evaluation in shifted}
    sensitivities: Dict[str, List[Dict[str, Any]]] = {}
    for metric in resolved_metrics:
        base = nominal.metrics[metric.name]
        rows = []
        for param in active:
            low = by_label[f"{param}-"]
            high = by_label[f"{param}+"]
            if not (low.feasible and high.feasible):
                rows.append({"param": param, "elasticity": None,
                             "delta": None})
                continue
            spread = high.metrics[metric.name] - low.metrics[metric.name]
            relative = 2.0 * delta * variation.sigma[param]
            elasticity = (None if base == 0.0
                          else (spread / base) / relative)
            rows.append({"param": param, "elasticity": elasticity,
                         "delta": spread})
        rows.sort(key=lambda row: (-(abs(row["elasticity"])
                                     if row["elasticity"] is not None
                                     else -1.0), row["param"]))
        for rank, row in enumerate(rows, start=1):
            row["rank"] = rank
        sensitivities[metric.name] = rows
    return RobustResult(
        kind="sensitivity",
        name=name if name is not None else design.name,
        design_name=design.name,
        design_hash=design.content_hash,
        options=resolved_options,
        metrics=[metric.name for metric in resolved_metrics],
        nominal=dict(nominal.metrics),
        accounting=_accounting(shifted),
        variation=variation,
        sensitivities=sensitivities,
        failures=_failure_entries(shifted),
        resilience=resilience)


def worst_case(design: Design,
               variation: VariationModel,
               *,
               metrics: Sequence[Union[str, Metric]] = DEFAULT_METRICS,
               options: Optional[SimOptions] = None,
               simulator: Optional[Simulator] = None,
               name: Optional[str] = None,
               chunk_size: Optional[int] = None,
               on_progress: Optional[ProgressHook] = None,
               should_stop: Optional[Callable[[], bool]] = None
               ) -> RobustResult:
    """Directed worst/best extremes per metric, sensitivity-steered.

    Central differences decide, per metric, which direction of each
    parameter hurts; every parameter is then pushed to that side of its
    truncation extreme (``cutoff*sigma`` for normal models,
    ``sqrt(3)*sigma`` for uniform) and the resulting synthetic corner
    is evaluated.  For metrics monotone in each parameter — the energy
    and latency models are — these bounds envelop any Monte Carlo
    ensemble of the same (truncated) model.
    """
    resolved_metrics = resolve_metrics(metrics)
    active = [param for param in variation.params
              if variation.sigma[param] > 0.0]
    session, resolved_options, owns = _session(simulator, options)
    resilience = dict.fromkeys(RESILIENCE_COUNTERS, 0)
    try:
        probe_total = 1 + 2 * len(active) + 2 * len(resolved_metrics)
        probe = sensitivity(
            design, variation, metrics=resolved_metrics,
            options=resolved_options, simulator=session, name=name,
            chunk_size=chunk_size, should_stop=should_stop,
            on_progress=(None if on_progress is None else
                         lambda done, _total, hits:
                         on_progress(done, probe_total, hits)))
        corner_entries: List[Tuple[str, Design]] = []
        corner_docs: List[Dict[str, Any]] = []
        for metric in resolved_metrics:
            rows = {row["param"]: row
                    for row in probe.sensitivities[metric.name]}
            for side in ("worst", "best"):
                factors = {}
                for param in active:
                    slope = rows[param]["delta"]
                    if slope is None or slope == 0.0:
                        continue
                    hurts_high = (slope > 0) == (metric.goal == "min")
                    extent = variation.extent(param)
                    up = hurts_high if side == "worst" else not hurts_high
                    factors[param] = 1.0 + extent if up else 1.0 - extent
                corner_name = f"{side}:{metric.name}"
                corner_entries.append(
                    (corner_name, perturb_design(design, factors)))
                corner_docs.append({"corner": corner_name,
                                    "factors": factors})
        evaluations = _evaluate_ensemble(
            session, corner_entries, resolved_options, resolved_metrics,
            chunk_size, on_progress, should_stop, resilience,
            progress_offset=1 + 2 * len(active),
            progress_total=probe_total)
    finally:
        if owns:
            session.close()
    for counter in RESILIENCE_COUNTERS:
        resilience[counter] += probe.resilience.get(counter, 0)
    by_label = {evaluation.label: evaluation for evaluation in evaluations}
    bounds: Dict[str, Dict[str, Any]] = {}
    for metric in resolved_metrics:
        bound: Dict[str, Any] = {}
        for side in ("worst", "best"):
            corner_name = f"{side}:{metric.name}"
            evaluation = by_label[corner_name]
            if evaluation.feasible:
                bound[side] = {"value": evaluation.metrics[metric.name],
                               "corner": corner_name}
            else:
                bound[side] = {"value": None, "corner": corner_name,
                               "failure": {"type": evaluation.failure_type,
                                           "message": evaluation.failure}}
        bounds[metric.name] = bound
    for doc in corner_docs:
        evaluation = by_label[doc["corner"]]
        doc["feasible"] = evaluation.feasible
        doc["metrics"] = dict(evaluation.metrics)
        doc["failure"] = (None if evaluation.feasible else
                          {"type": evaluation.failure_type,
                           "message": evaluation.failure})
    return RobustResult(
        kind="worst_case",
        name=name if name is not None else design.name,
        design_name=design.name,
        design_hash=design.content_hash,
        options=resolved_options,
        metrics=[metric.name for metric in resolved_metrics],
        nominal=dict(probe.nominal),
        accounting=_accounting(evaluations),
        variation=variation,
        corners=corner_docs,
        bounds=bounds,
        sensitivities=probe.sensitivities,
        failures=_failure_entries(evaluations),
        resilience=resilience)
