"""The first-class session API: designs in, structured results out.

This package turns the paper's three-part interface into values:

* :class:`Design` — a frozen, hashable, JSON-serializable bundle of a
  :class:`~repro.sw.dag.StageGraph`, a
  :class:`~repro.hw.chip.SensorSystem` and a
  :class:`~repro.sim.mapping.Mapping`;
* :class:`SimOptions` / :class:`SimResult` — frozen run options and the
  structured outcome (report or typed failure) of one simulation;
* :class:`Simulator` — a session that runs designs, caches results by
  content hash, and executes batches via ``run_many``;
* the spec layer (:func:`load_scenario`, :func:`design_from_spec`) and
  the use-case registry (:func:`build_usecase`), which make every
  scenario storable, diffable, and replayable as plain JSON.

Names resolve on first access (see :mod:`repro._lazy`).
"""

from repro import _lazy

_lazy.install(globals(), {
    "repro.api.design": ("Design",),
    "repro.api.result": ("SimOptions", "SimResult"),
    "repro.api.simulator": (
        "Simulator", "BatchStats", "CacheInfo", "run_design"),
    "repro.api.diskcache": ("DiskCacheInfo", "DiskResultCache"),
    "repro.api.serialize": ("DESIGN_SCHEMA",),
    "repro.api.spec": (
        "design_from_spec", "scenario_from_spec", "load_scenario"),
    "repro.api.registry": (
        "build_usecase", "register_usecase", "available_usecases"),
})
