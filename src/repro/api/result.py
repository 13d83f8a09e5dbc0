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

import math
import operator
from dataclasses import dataclass, field
from functools import cached_property, partial
from itertools import repeat
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.columns import element, gather
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
        # Spec files hand us arbitrary JSON values: each check runs on
        # the values that passed the ones before it, so a string frame
        # rate fails cleanly.
        for name, failing, message in _CHECKS:
            value = getattr(self, name)
            if failing([value]):
                raise ConfigurationError(message(value))

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


# --- option checks, for one value or a column of them ------------------------

def _of_kind(bad: Callable[[type], bool], values: Sequence[Any]) -> List[int]:
    """The rows of ``values`` whose type ``bad`` rejects (one test per
    distinct type)."""
    kinds = [kind for kind in set(map(type, values)) if bad(kind)]
    if not kinds:
        return []
    return [row for row, value in enumerate(values) if type(value) in kinds]


def _not_number(kind: type) -> bool:
    return not issubclass(kind, (int, float)) or issubclass(kind, bool)


def _not_integer(kind: type) -> bool:
    return not issubclass(kind, int) or issubclass(kind, bool)


def _not_boolean(kind: type) -> bool:
    return not issubclass(kind, bool)


def _where_not(test: Callable[[Any, Any], bool], bound: Any,
               values: Sequence[Any]) -> List[int]:
    """The rows of ``values`` where ``test(value, bound)`` fails."""
    if all(map(test, values, repeat(bound))):
        return []
    return [row for row, value in enumerate(values)
            if not test(value, bound)]


def _too_large(values: Sequence[Any]) -> List[int]:
    """The rows of ``values`` that overflow a float (integers past
    ``sys.float_info.max``): ``math.fsum`` converts every value as
    ``float()`` does, so a column that sums has none."""
    try:
        math.fsum(values)
        return []
    except (OverflowError, ValueError):
        return [row for row, value in enumerate(values)
                if not _fits_float(value)]


def _fits_float(value: Any) -> bool:
    try:
        float(value)
    except OverflowError:
        return False
    return True


def _bits(name: str) -> Callable[[Any], str]:
    return lambda value: (f"{name} must fit a float, got an integer of "
                          f"{value.bit_length()} bits")


_BOOLEANS = "cycle_accurate and skip_checks must be booleans"

#: The checks of :class:`SimOptions`, in the order they apply: a field,
#: the rows of a column of its values that fail, and the error message
#: of a failing value.  A value is checked only when every check before
#: it passed, so the first failing check names the error.
_CHECKS: Tuple[Tuple[str, Callable[[Sequence[Any]], List[int]],
                     Callable[[Any], str]], ...] = (
    ("frame_rate", partial(_of_kind, _not_number),
     lambda value: f"frame rate must be a number, got {value!r}"),
    ("exposure_slots", partial(_of_kind, _not_integer),
     lambda value: f"exposure slots must be an integer, got {value!r}"),
    ("cycle_accurate", partial(_of_kind, _not_boolean),
     lambda value: _BOOLEANS),
    ("skip_checks", partial(_of_kind, _not_boolean),
     lambda value: _BOOLEANS),
    ("frame_rate", partial(_where_not, operator.gt, 0),  # NaN too
     lambda value: f"frame rate must be positive, got {value}"),
    ("exposure_slots", partial(_where_not, operator.ge, 1),
     lambda value: f"exposure slots must be >= 1, got {value}"),
    # Last, so a value the sign checks reject keeps their message.
    ("frame_rate", _too_large, _bits("frame rate")),
    ("exposure_slots", _too_large, _bits("exposure slots")),
)


@dataclass
class OptionColumns:
    """The options of a group of points, as columns.

    One ``base`` :class:`SimOptions` holds the fields every row shares;
    ``columns`` maps each varied field to one value per row, for
    ``size`` rows.  This is how the vectorized explore path hands a
    group to :meth:`~repro.api.Simulator.probe_results` and
    :meth:`~repro.api.Simulator.run_block`, and how a
    :class:`ResultBlock` holds the options of its rows: no
    :class:`SimOptions` per row.  ``options[row]`` builds one row's
    value where a single key needs it.  Rows are valid options only
    once :meth:`errors` finds nothing wrong with them.
    """

    base: SimOptions
    columns: Dict[str, List[Any]]
    size: int

    def __len__(self) -> int:
        return self.size

    def __getitem__(self, row: int) -> SimOptions:
        """The options of one row."""
        if not self.columns:
            return self.base
        return self.base.replace(**{name: column[row] for name, column
                                    in self.columns.items()})

    def values(self, name: str) -> List[Any]:
        """One field's value per row."""
        column = self.columns.get(name)
        return column if column is not None \
            else [getattr(self.base, name)] * self.size

    def take(self, rows: Sequence[int]) -> "OptionColumns":
        """The options of ``rows``, in that order."""
        return OptionColumns(self.base, {name: gather(column, rows)
                                         for name, column
                                         in self.columns.items()},
                             len(rows))

    def errors(self) -> Dict[int, ConfigurationError]:
        """Row -> the error :class:`SimOptions` raises for that row's
        values, for every invalid row: the checks run once per column,
        in their order, each on the rows the ones before it passed."""
        errors: Dict[int, ConfigurationError] = {}
        for name, failing, message in _CHECKS:
            column = self.columns.get(name)
            if column is None:
                continue  # the base value, valid by construction
            if not errors:
                rows: Sequence[int] = range(self.size)
                found = failing(column)
            else:
                rows = [row for row in range(self.size) if row not in errors]
                found = failing(gather(column, rows))
            for position in found:
                row = rows[position]
                errors[row] = ConfigurationError(message(column[row]))
        return errors


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
    element per row, and the :class:`OptionColumns` of its rows.  The
    session caches whole blocks instead of one result per point;
    :meth:`result` materializes one row's bit-identical
    :class:`SimResult` when a single key is asked for.  A block from
    :meth:`~repro.api.Simulator.run_block` also records the ``group`` it
    was run for and the ``failed`` results of the group positions that
    did not simulate, so a probe of an equal group is answered whole.
    """

    design_name: str
    design_hash: Optional[str]
    #: The options of each row, as columns.
    options: OptionColumns
    report: EnergyReport
    #: The group this block was run for, failed positions included
    #: (None: the block answers per key only).
    group: Optional[OptionColumns] = None
    #: Group position -> the failed result of that point.
    failed: Dict[int, SimResult] = field(default_factory=dict)
    #: Rows already written to a disk tier (the session keeps this).
    persisted: set = field(default_factory=set, init=False, repr=False)

    @cached_property
    def rows(self) -> Dict[SimOptions, int]:
        """Options -> row, built on the first per-key probe; a probe of
        the block's ``group`` serves it whole and never builds it."""
        return {self.options[row]: row for row in range(len(self))}

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
