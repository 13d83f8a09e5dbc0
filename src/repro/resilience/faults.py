"""Deterministic fault injection for the execution stack.

One seeded :class:`FaultInjector`, configured through the
:data:`FAULTS_ENV` environment variable (or programmatically), drives
every chaos scenario the resilience tests (``tests/test_resilience.py``)
and the ``chaos-smoke`` and ``distributed-smoke`` CI jobs exercise:

``kill_rate`` / ``kill_design``
    Kill the executing worker process with ``os._exit`` — either a
    deterministic fraction of tasks (by task-identity digest) or any
    design whose name contains a marker substring.
``transient_rate``
    Raise :class:`repro.exceptions.TransientSimError` before the task
    body runs.
``delay_s`` / ``delay_rate``
    Sleep before the task body (slow-worker simulation).
``disk_error_rate``
    Raise ``OSError(ENOSPC)`` from the disk-cache I/O hooks.

Decisions are **deterministic and schedule-independent**: each one is a
pure function of ``(seed, task identity, attempt, fault kind)`` via a
SHA-256 digest, never of ambient RNG state or execution order, so a
faulty run replays bit-identically and a crashed task crashes again on
every attempt up to ``*_max_attempt`` (default 0: first attempt only —
retries then succeed, which is how recovery paths are measured).

The injector is inert unless configured: :func:`get_injector` returns a
no-op singleton when :data:`FAULTS_ENV` is unset, and the hooks in the
simulator and disk cache cost one attribute check in that case.
Worker processes inherit the environment, so one exported variable
reaches every layer, pool workers included.
"""

from __future__ import annotations

import errno
import hashlib
import json
import os
import time
from dataclasses import dataclass, field
from typing import Any, Dict, Optional

from repro.exceptions import ConfigurationError, TransientSimError

#: Environment variable carrying the fault plan as a JSON object.
FAULTS_ENV = "REPRO_FAULTS"

#: Every key a fault plan may set (anything else is a typo → error).
_PLAN_KEYS = {
    "seed", "kill_rate", "kill_max_attempt", "kill_design",
    "kill_every", "transient_rate", "transient_max_attempt",
    "delay_s", "delay_rate", "disk_error_rate",
}


@dataclass(frozen=True)
class FaultPlan:
    """A parsed, validated fault configuration."""

    seed: int = 0
    kill_rate: float = 0.0
    kill_max_attempt: int = 0
    kill_design: Optional[str] = None
    kill_every: int = 0
    transient_rate: float = 0.0
    transient_max_attempt: int = 0
    delay_s: float = 0.0
    delay_rate: float = 1.0
    disk_error_rate: float = 0.0

    def __post_init__(self) -> None:
        for name in ("kill_rate", "transient_rate", "delay_rate",
                     "disk_error_rate"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ConfigurationError(
                    f"fault plan {name} must be within [0, 1], got {value}")
        if self.delay_s < 0:
            raise ConfigurationError(
                f"fault plan delay_s must be >= 0, got {self.delay_s}")
        if self.kill_every < 0:
            raise ConfigurationError(
                f"fault plan kill_every must be >= 0, "
                f"got {self.kill_every}")

    @property
    def active(self) -> bool:
        return bool(self.kill_rate or self.kill_design or self.kill_every
                    or self.transient_rate or self.delay_s
                    or self.disk_error_rate)

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "FaultPlan":
        if not isinstance(payload, dict):
            raise ConfigurationError(
                f"fault plan must be a JSON object, "
                f"got {type(payload).__name__}")
        unknown = set(payload) - _PLAN_KEYS
        if unknown:
            raise ConfigurationError(
                f"unknown fault plan keys: {sorted(unknown)}; "
                f"supported: {sorted(_PLAN_KEYS)}")
        return cls(**payload)

    @classmethod
    def from_env(cls, environ=None) -> "FaultPlan":
        """The plan named by :data:`FAULTS_ENV` (empty plan when unset)."""
        environ = os.environ if environ is None else environ
        raw = environ.get(FAULTS_ENV, "").strip()
        if not raw:
            return cls()
        try:
            payload = json.loads(raw)
        except json.JSONDecodeError as error:
            raise ConfigurationError(
                f"{FAULTS_ENV} is not valid JSON: {error}") from error
        return cls.from_dict(payload)


@dataclass
class FaultCounters:
    """What one injector actually did (per process)."""

    kills: int = 0
    transients: int = 0
    delays: int = 0
    disk_errors: int = 0

    def snapshot(self) -> Dict[str, int]:
        return {"kills": self.kills, "transients": self.transients,
                "delays": self.delays, "disk_errors": self.disk_errors}


class FaultInjector:
    """Executes one :class:`FaultPlan` at the instrumented points.

    ``before_task`` runs at the top of every simulation attempt (thread
    and process workers alike); ``before_disk`` runs before every
    disk-cache read/write.  Both are no-ops for an inactive plan.
    """

    def __init__(self, plan: Optional[FaultPlan] = None) -> None:
        self.plan = plan if plan is not None else FaultPlan()
        self.active = self.plan.active
        self.counters = FaultCounters()
        self._task_count = 0

    # --- decision helpers --------------------------------------------------

    def _chance(self, kind: str, identity: str, attempt: int,
                rate: float) -> bool:
        """Deterministic rate decision for one (task, attempt, kind)."""
        if rate <= 0.0:
            return False
        if rate >= 1.0:
            return True
        digest = hashlib.sha256(
            f"{self.plan.seed}:{kind}:{identity}:{attempt}"
            .encode("utf-8")).digest()
        return int.from_bytes(digest[:8], "big") / 2.0 ** 64 < rate

    # --- instrumented points -----------------------------------------------

    def before_task(self, name: str, identity: Optional[str],
                    attempt: int = 0) -> None:
        """Fault hook at the top of one simulation attempt.

        ``identity`` is the design content hash when available (stable
        across processes); the design name otherwise.  May sleep, raise
        :class:`TransientSimError`, or kill the process.
        """
        if not self.active:
            return
        token = identity if identity is not None else name
        plan = self.plan
        self._task_count += 1
        if plan.delay_s > 0 and self._chance(
                "delay", token, attempt, plan.delay_rate):
            self.counters.delays += 1
            time.sleep(plan.delay_s)
        kill = False
        if plan.kill_design and plan.kill_design in name:
            kill = True  # marked designs crash on every attempt
        elif plan.kill_every and self._task_count % plan.kill_every == 0:
            kill = True  # nth task executed by this process
        elif attempt <= plan.kill_max_attempt and self._chance(
                "kill", token, 0, plan.kill_rate):
            kill = True
        if kill:
            self.counters.kills += 1
            os._exit(1)
        if attempt <= plan.transient_max_attempt and self._chance(
                "transient", token, attempt, plan.transient_rate):
            self.counters.transients += 1
            raise TransientSimError(
                f"injected transient fault (task {name!r}, "
                f"attempt {attempt})")

    def before_disk(self, operation: str, token: str) -> None:
        """Fault hook before one disk-cache I/O operation."""
        if not self.active or self.plan.disk_error_rate <= 0.0:
            return
        if self._chance("disk", f"{operation}:{token}", 0,
                        self.plan.disk_error_rate):
            self.counters.disk_errors += 1
            raise OSError(errno.ENOSPC,
                          f"injected disk fault ({operation})")


#: Module-level singleton, resolved lazily from the environment.
_injector: Optional[FaultInjector] = None


def get_injector() -> FaultInjector:
    """The process-wide injector (a no-op one when nothing is configured).

    The environment is read once per process; call :func:`reset_injector`
    after changing :data:`FAULTS_ENV` (tests do).
    """
    global _injector
    if _injector is None:
        _injector = FaultInjector(FaultPlan.from_env())
    return _injector


def reset_injector(plan: Optional[FaultPlan] = None) -> FaultInjector:
    """Replace the singleton — with ``plan``, or re-read from the env."""
    global _injector
    _injector = FaultInjector(plan) if plan is not None else None
    return get_injector()
