"""Session options and structured simulation results.

:class:`SimOptions` captures everything :func:`repro.simulate` used to
take as loose keyword arguments, as one frozen, hashable value —
simulator sessions carry it, batches override it per design, and result
caches key on it.  :class:`SimResult` is the structured outcome of one
simulation: either an :class:`~repro.energy.report.EnergyReport` or a
typed failure, so batch consumers (sweeps, the CLI) no longer hand-roll
``try/except CamJError``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Any, Dict, List, Optional

from repro.columns import element
from repro.energy.report import EnergyEntry, EnergyReport
from repro.exceptions import CamJError, ConfigurationError, \
    SerializationError


@dataclass(frozen=True)
class SimOptions:
    """Frozen simulation options (the former ``simulate()`` kwargs).

    ``frame_rate``
        FPS target the analog delays are inferred from (Sec. 4.1).
    ``exposure_slots``
        Analog pipeline slots the exposure phase occupies (Fig. 6 uses 1).
    ``cycle_accurate``
        Use the event-driven per-cycle digital simulator instead of the
        analytical timeline.
    ``skip_checks``
        Skip the pre-simulation design checks (expert escape hatch).
    """

    frame_rate: float = 30.0
    exposure_slots: int = 1
    cycle_accurate: bool = False
    skip_checks: bool = False

    def __post_init__(self) -> None:
        # Spec files hand us arbitrary JSON values: type-check before
        # comparing, so a string frame rate fails cleanly.
        if isinstance(self.frame_rate, bool) \
                or not isinstance(self.frame_rate, (int, float)):
            raise ConfigurationError(
                f"frame rate must be a number, got {self.frame_rate!r}")
        if isinstance(self.exposure_slots, bool) \
                or not isinstance(self.exposure_slots, int):
            raise ConfigurationError(
                f"exposure slots must be an integer, "
                f"got {self.exposure_slots!r}")
        if not isinstance(self.cycle_accurate, bool) \
                or not isinstance(self.skip_checks, bool):
            raise ConfigurationError(
                "cycle_accurate and skip_checks must be booleans")
        if not self.frame_rate > 0:  # NaN too
            raise ConfigurationError(
                f"frame rate must be positive, got {self.frame_rate}")
        if self.exposure_slots < 1:
            raise ConfigurationError(
                f"exposure slots must be >= 1, got {self.exposure_slots}")

    def __hash__(self) -> int:
        # Options are hashed millions of times as cache-key components
        # during large explorations; memoize (safe: the value is frozen).
        value = self.__dict__.get("_hash")
        if value is None:
            value = hash((self.frame_rate, self.exposure_slots,
                          self.cycle_accurate, self.skip_checks))
            object.__setattr__(self, "_hash", value)
        return value

    def replace(self, **changes: Any) -> "SimOptions":
        """A copy with some fields changed."""
        return type(self)(**{**self.to_dict(), **changes})

    def to_dict(self) -> Dict[str, Any]:
        """JSON-compatible form (the ``options`` block of a spec file)."""
        return {
            "frame_rate": self.frame_rate,
            "exposure_slots": self.exposure_slots,
            "cycle_accurate": self.cycle_accurate,
            "skip_checks": self.skip_checks,
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "SimOptions":
        """Inverse of :meth:`to_dict`; unknown keys are rejected."""
        if not isinstance(payload, dict):
            raise ConfigurationError(
                f"options must be an object, got {type(payload).__name__}")
        known = {"frame_rate", "exposure_slots", "cycle_accurate",
                 "skip_checks"}
        unknown = set(payload) - known
        if unknown:
            raise ConfigurationError(
                f"unknown simulation options: {sorted(unknown)}; "
                f"supported: {sorted(known)}")
        return cls(**payload)


@dataclass
class SimResult:
    """Outcome of simulating one design under one set of options.

    Exactly one of ``report`` / ``error`` is set.  ``error`` keeps the
    original :class:`CamJError` instance so :meth:`unwrap` re-raises it
    unchanged for callers that want the legacy raising behavior.
    """

    design_name: str
    options: SimOptions
    design_hash: Optional[str] = None
    report: Optional[EnergyReport] = None
    error: Optional[CamJError] = field(default=None, repr=False)
    elapsed_s: float = 0.0
    cached: bool = False

    @property
    def ok(self) -> bool:
        """Whether the simulation produced a report."""
        return self.report is not None

    @property
    def error_type(self) -> Optional[str]:
        """Class name of the captured failure, if any."""
        return type(self.error).__name__ if self.error is not None else None

    @property
    def failure(self) -> Optional[str]:
        """Human-readable failure message, if any."""
        return str(self.error) if self.error is not None else None

    def unwrap(self) -> EnergyReport:
        """The report, or re-raise the captured failure."""
        if self.error is not None:
            raise self.error
        assert self.report is not None
        return self.report

    def to_dict(self) -> Dict[str, Any]:
        """JSON-compatible form, report or typed failure included."""
        return {
            "design": self.design_name,
            "design_hash": self.design_hash,
            "options": self.options.to_dict(),
            "ok": self.ok,
            "report": self.report.to_dict() if self.report else None,
            "error": ({"type": self.error_type, "message": self.failure}
                      if self.error is not None else None),
            "elapsed_s": self.elapsed_s,
            "cached": self.cached,
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "SimResult":
        """Inverse of :meth:`to_dict` (the disk-cache load path).

        A captured failure is rebuilt as the same
        :mod:`repro.exceptions` class when its type name still exists
        there (plain :class:`CamJError` otherwise), so :meth:`unwrap`
        re-raises persisted failures just like fresh ones.
        """
        if not isinstance(payload, dict):
            raise SerializationError(
                f"result payload must be an object, "
                f"got {type(payload).__name__}")
        try:
            options = SimOptions.from_dict(payload["options"])
            raw_report = payload["report"]
            raw_error = payload["error"]
            design_name = payload["design"]
        except KeyError as error:
            raise SerializationError(
                f"result payload missing {error}") from error
        report = (EnergyReport.from_dict(raw_report)
                  if raw_report is not None else None)
        error = (_rebuild_error(raw_error) if raw_error is not None
                 else None)
        if (report is None) == (error is None):
            raise SerializationError(
                "result payload must carry exactly one of report/error")
        return cls(design_name=design_name, options=options,
                   design_hash=payload.get("design_hash"),
                   report=report, error=error,
                   elapsed_s=payload.get("elapsed_s", 0.0))


@dataclass(eq=False)
class ResultBlock:
    """Feasible results of one design at many options, as columns.

    What :meth:`~repro.api.Simulator.run_block` publishes for a group
    of points: one :class:`EnergyReport` whose energies, ``frame_rate``,
    ``frame_time`` and ``analog_stage_delay`` are columns with one
    element per row, and the options of each row.  The session caches whole blocks instead
    of one result per point; :meth:`result` materializes one row's
    bit-identical :class:`SimResult` when a single key is asked for.
    """

    design_name: str
    design_hash: Optional[str]
    #: Row -> the options that row was evaluated under.
    options: List[SimOptions]
    report: EnergyReport
    #: Rows already written to a disk tier (the session keeps this).
    persisted: set = field(default_factory=set, init=False, repr=False)

    @cached_property
    def rows(self) -> Dict[SimOptions, int]:
        """Options -> row (the inverse of ``options``), built on the
        first per-key probe; a group probe that equals ``options``
        serves the block whole and never builds it."""
        return {options: row for row, options in enumerate(self.options)}

    def __len__(self) -> int:
        return len(self.options)

    def result(self, row: int) -> SimResult:
        """The full result of one row, as the scalar engine builds it."""
        options = self.options[row]
        column = self.report
        report = EnergyReport(
            system_name=column.system_name, frame_rate=options.frame_rate,
            frame_time=element(column.frame_time, row),
            digital_latency=column.digital_latency,
            analog_stage_delay=element(column.analog_stage_delay, row))
        report.extend(EnergyEntry(
            name=entry.name, category=entry.category, layer=entry.layer,
            energy=element(entry.energy, row), stage=entry.stage)
            for entry in column.entries)
        return SimResult(design_name=self.design_name, options=options,
                         design_hash=self.design_hash, report=report)


def _rebuild_error(raw: Any) -> CamJError:
    """A CamJError instance from its serialized ``{type, message}`` pair."""
    if not isinstance(raw, dict):
        raise SerializationError(
            f"serialized error must be an object, got {type(raw).__name__}")
    from repro import exceptions as exceptions_module

    error_cls = getattr(exceptions_module, str(raw.get("type")), None)
    if not (isinstance(error_cls, type)
            and issubclass(error_cls, CamJError)):
        error_cls = CamJError
    return error_cls(str(raw.get("message", "")))
