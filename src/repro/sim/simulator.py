"""The top-level CamJ simulation entry point (Fig. 4).

:func:`_simulate_graph` is the engine that ties the framework together:
DAG validation, mapping resolution, pre-simulation design checks,
cycle-level digital simulation, frame-rate-driven delay inference, and
the three energy models, producing a component-level
:class:`repro.energy.report.EnergyReport`.  It is the only engine: the
operating point (frame rate, exposure slots) is one number each for a
single run, or one column each for a group of points over one design —
the vectorized explore path — and the same passes serve both, the
energy models evaluating a column element-wise (:mod:`repro.columns`).

The engine is organized as explicit *passes* (:data:`SIM_PASSES`), each
declaring which inputs it reads.  Passes that read only the design —
mapping resolution, the design checks, the digital timeline, the
cycle-accurate latency, the analog usage walk, and the communication
energy — are memoized in a :class:`PassMemo`, so re-running one design
under different :class:`~repro.api.result.SimOptions` (a frame-rate or
exposure-slot sweep) recomputes only the option-dependent passes.
:class:`~repro.api.Simulator` shares one memo per design content hash
across a whole session; the analog energy pass reads the memoized
analog usages instead of walking the analog wiring again.

:func:`simulate` is the thin functional wrapper kept for backward
compatibility; new code should prefer the session API
(:class:`repro.api.Simulator` over :class:`repro.api.Design`), which
adds structured results, caching, and parallel batch execution on top
of the same engine.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional, Sequence, Tuple, Union

from repro.energy.analog_model import analog_energy, analog_usage
from repro.energy.comm_model import communication_energy
from repro.energy.digital_model import digital_energy
from repro.energy.report import EnergyReport
from repro.exceptions import CamJError
from repro.hw.chip import SensorSystem
from repro.sim.checks import run_pre_simulation_checks
from repro.sim.cycle_sim import cycle_accurate_latency, simulate_digital
from repro.sim.delay import estimate_frame_timing, per_point
from repro.sim.mapping import Mapping
from repro.sw.dag import StageGraph
from repro.sw.stage import Stage


@dataclass(frozen=True)
class SimPass:
    """One engine pass and the inputs it reads.

    ``reads`` names the pass's inputs: ``"design"`` (the graph, system,
    mapping, and everything derived from them) and/or individual
    ``"options.<field>"`` entries.  A pass whose every input is the
    design is safe to memoize per design and reuse across options.
    """

    name: str
    reads: Tuple[str, ...]

    @property
    def design_only(self) -> bool:
        """Whether the pass reads nothing but the design."""
        return all(read == "design" or read.startswith("design.")
                   for read in self.reads)


#: The engine's passes, in execution order.  ``resolve`` through
#: ``comm_energy`` with ``design``-only reads are memoized per design;
#: the option-dependent passes run once per distinct options value.
SIM_PASSES: Tuple[SimPass, ...] = (
    SimPass("resolve", reads=("design",)),
    SimPass("checks", reads=("design",)),
    SimPass("timeline", reads=("design",)),
    SimPass("cycle_sim", reads=("design",)),
    SimPass("analog_usage", reads=("design",)),
    SimPass("timing", reads=("design", "options.frame_rate",
                             "options.exposure_slots",
                             "options.cycle_accurate")),
    SimPass("analog_energy", reads=("design", "options.frame_rate",
                                    "options.exposure_slots",
                                    "options.cycle_accurate")),
    SimPass("digital_energy", reads=("design", "options.frame_rate",
                                     "options.exposure_slots",
                                     "options.cycle_accurate")),
    SimPass("comm_energy", reads=("design",)),
)

_PASS_BY_NAME: Dict[str, SimPass] = {spec.name: spec for spec in SIM_PASSES}


class PassCounters:
    """Thread-safe per-pass execution counters of one session.

    Memoized passes count only their *actual* runs — a frame-rate sweep
    over one design notes ``timeline`` once and ``timing`` once per
    rate, which is exactly the incremental-simulation claim tests
    assert.  An engine call over columns of operating points counts as
    one run of each option-dependent pass, however many points it
    evaluates.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._runs: Dict[str, int] = {}

    def note(self, name: str) -> None:
        """Record one execution of pass ``name``."""
        with self._lock:
            self._runs[name] = self._runs.get(name, 0) + 1

    def snapshot(self) -> Dict[str, int]:
        """Copy of the per-pass run counts."""
        with self._lock:
            return dict(self._runs)


class PassMemo:
    """Memoized design-only pass outputs for one design.

    One memo belongs to one design (identity or content hash — the
    session API shares a single memo across every design with the same
    content hash).  ``get_or_run`` is serialized per memo, so two
    concurrent sweeps over the same design compute each design-only
    pass exactly once and share the result; failures propagate without
    being cached, matching the pre-split behavior.
    """

    __slots__ = ("_lock", "_values")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._values: Dict[str, Any] = {}

    def get_or_run(self, name: str, compute: Callable[[], Any],
                   counters: Optional[PassCounters]) -> Any:
        value = self._values.get(name)
        if value is not None:
            return value
        with self._lock:
            value = self._values.get(name)
            if value is None:
                if counters is not None:
                    counters.note(name)
                value = compute()
                self._values[name] = value
        return value

    def known_passes(self) -> Tuple[str, ...]:
        """Names of the passes already memoized (for tests/inspection)."""
        with self._lock:
            return tuple(sorted(self._values))


def _run_pass(name: str, memo: Optional[PassMemo],
              counters: Optional[PassCounters],
              compute: Callable[[], Any]) -> Any:
    """Run one declared pass, memoizing it iff it reads only the design."""
    spec = _PASS_BY_NAME[name]
    if memo is not None and spec.design_only:
        return memo.get_or_run(name, compute, counters)
    if counters is not None:
        counters.note(name)
    return compute()


def _simulate_graph(graph: StageGraph, system: SensorSystem,
                    mapping: Mapping,
                    frame_rate: Union[float, Sequence[float]],
                    exposure_slots: Union[int, Sequence[int]] = 1,
                    cycle_accurate: bool = False,
                    skip_checks: bool = False,
                    mapping_validated: bool = False,
                    resolved: Optional[Dict[str, object]] = None,
                    memo: Optional[PassMemo] = None,
                    counters: Optional[PassCounters] = None):
    """The simulation engine over already-normalized design objects.

    ``mapping_validated`` lets callers that validated at construction
    time (:class:`repro.api.Design`) skip re-validating per run, and
    ``resolved`` lets them hand in a cached ``mapping.resolve`` result.
    ``memo`` carries the design-only pass outputs (:data:`SIM_PASSES`)
    between runs of the same design — a caller sweeping options over one
    design passes the same memo each time and pays for the timeline,
    the analog usage walk, the cycle-accurate latency, and the
    communication energy exactly once.  ``counters`` (if given) records
    which passes actually executed.  With or without either, the report
    is bit-identical (``tests/test_passes.py`` holds the single-body
    reference engine this is checked against).

    ``frame_rate`` and ``exposure_slots`` are one number each — the
    result is an :class:`EnergyReport`, and a failure raises — or
    per-point columns (see :func:`~repro.sim.delay.estimate_frame_timing`).
    For columns the result is ``(report, failures)``: the column report
    of the points that simulated, in order (``None`` when none did), and
    each other point's position mapped to its :class:`CamJError` — its
    :class:`TimingError` when over budget, else the failing pass's
    error.  Each element equals the report of its point alone, bit for
    bit.
    """
    columns = per_point(frame_rate) or per_point(exposure_slots)
    over: Dict[int, CamJError] = {}
    try:
        if not mapping_validated:
            mapping.validate(graph, system)
        memo = memo if memo is not None else PassMemo()
        if resolved is None:
            resolved = _run_pass(
                "resolve", memo, counters,
                lambda: mapping.resolve(graph, system, validate=False))
        local_resolved = resolved
        if not skip_checks:
            def _checks() -> bool:
                run_pre_simulation_checks(graph, system, mapping,
                                          resolved=local_resolved)
                return True
            _run_pass("checks", memo, counters, _checks)

        timeline = _run_pass(
            "timeline", memo, counters,
            lambda: simulate_digital(graph, system, mapping,
                                     resolved=resolved))
        digital_latency = timeline.total_latency
        if cycle_accurate:
            digital_latency = _run_pass(
                "cycle_sim", memo, counters,
                lambda: cycle_accurate_latency(graph, system, mapping,
                                               resolved=resolved))

        participating = _run_pass(
            "analog_usage", memo, counters,
            lambda: analog_usage(graph, system, mapping, resolved=resolved))
        timing = _run_pass(
            "timing", memo, counters,
            lambda: estimate_frame_timing(
                frame_rate=frame_rate,
                digital_latency=digital_latency,
                num_analog_arrays=len(participating),
                exposure_slots=exposure_slots))
        if columns:
            timing, over = timing
            if timing is None:
                return None, over

        report = EnergyReport(
            system_name=system.name,
            frame_rate=timing.frame_rate,
            frame_time=timing.frame_time,
            digital_latency=digital_latency,
            analog_stage_delay=timing.analog_stage_delay)
        report.extend(_run_pass(
            "analog_energy", memo, counters,
            lambda: analog_energy(participating, timing.analog_stage_delay)))
        report.extend(_run_pass(
            "digital_energy", memo, counters,
            lambda: digital_energy(system, timeline, timing.frame_time)))
        report.extend(_run_pass(
            "comm_energy", memo, counters,
            lambda: communication_energy(graph, system, mapping,
                                         resolved=resolved)))
    except CamJError as error:
        if not columns:
            raise
        size = len(frame_rate if per_point(frame_rate) else exposure_slots)
        return None, {row: over.get(row, error) for row in range(size)}
    return (report, over) if columns else report


def simulate(stages: Union[StageGraph, Sequence[Stage]],
             system: SensorSystem,
             mapping: Union[Mapping, Dict[str, str]],
             frame_rate: float,
             exposure_slots: int = 1,
             cycle_accurate: bool = False,
             skip_checks: bool = False) -> EnergyReport:
    """Estimate the per-frame energy of ``system`` running ``stages``.

    The paper's functional API (Fig. 5): bundles the three parts and
    runs the engine once.  Equivalent to
    ``Simulator(SimOptions(...)).run(Design(stages, system, mapping)).unwrap()``.

    Parameters
    ----------
    stages:
        A :class:`StageGraph` or the plain stage list of ``camj_sw_config``.
    system:
        The hardware description.
    mapping:
        A :class:`Mapping` or the plain dict of ``camj_mapping``.
    frame_rate:
        The FPS target the analog delays are inferred from (Sec. 4.1).
    exposure_slots:
        Analog pipeline slots the exposure phase occupies (Fig. 6 uses 1).
    cycle_accurate:
        Use the event-driven per-cycle simulator for the digital latency
        instead of the analytical timeline (slower; uniform clock only).
    skip_checks:
        Skip the pre-simulation design checks (expert escape hatch).

    Returns
    -------
    EnergyReport
        Component-level energy entries plus the inferred timing facts.
    """
    graph = stages if isinstance(stages, StageGraph) else StageGraph(stages)
    mapping = mapping if isinstance(mapping, Mapping) else Mapping(mapping)
    return _simulate_graph(graph, system, mapping, frame_rate=frame_rate,
                           exposure_slots=exposure_slots,
                           cycle_accurate=cycle_accurate,
                           skip_checks=skip_checks)
