"""Unified design-space exploration over the session API.

Three composable parts (the Sec. 6 explorations as a subsystem instead
of hand-rolled loops):

* **parameter spaces** (:mod:`repro.explore.space`) — declarative axes
  (:func:`choice`, :func:`linspace`, :func:`grid`), combinators
  (:func:`product`, :func:`zipped`, ``space.filter(...)``), all
  enumerated as columns and JSON-serializable;
* **metrics** (:mod:`repro.explore.metrics`) — a registry of named
  objective extractors computed uniformly from simulation output;
* **the engine** (:mod:`repro.explore.engine`) — :func:`explore` runs a
  space through :meth:`repro.api.Simulator.run_many` (cached, parallel),
  keeps infeasible points as typed data, and hands back an
  :class:`ExplorationResult` with N-objective Pareto frontier
  extraction, dominance ranking, per-point bottleneck annotation, and
  ``repro.explore/1`` JSON round-tripping.

Quick taste::

    from repro.explore import choice, explore, product

    space = product(choice("placement", ["2D-In", "2D-Off", "3D-In"]),
                    choice("cis_node", [130, 65]))
    result = explore(space, "edgaze",
                     objectives=("energy_per_frame", "power_density",
                                 "latency"))
    for point in result.frontier():
        print(point.label(), point.metrics)

Names resolve on first access (see :mod:`repro._lazy`).
"""

from repro import _lazy

_lazy.install(globals(), {
    "repro.explore.space": (
        "ParameterSpace", "Axis", "ProductSpace", "ZipSpace",
        "FilteredSpace", "choice", "grid", "linspace", "product", "zipped",
        "space_from_dict"),
    "repro.explore.metrics": (
        "Metric", "register_metric", "metric", "available_metrics",
        "resolve_metrics"),
    "repro.explore.engine": (
        "explore", "explore_stream", "ExplorationPoint",
        "ExplorationResult", "ExplorationInterrupted", "dominates",
        "pareto_indices", "dominance_ranks", "DEFAULT_OBJECTIVES",
        "EXPLORATION_SCHEMA", "ENGINE_CHOICES", "ENGINE_COUNTERS"),
    "repro.explore.annotate": (
        "Bottleneck", "identify_bottlenecks", "dominant_category"),
    "repro.explore.spec": (
        "ExplorationSpec", "exploration_spec_from_dict",
        "load_exploration_spec", "EXPLORATION_SPEC_SCHEMA"),
})
