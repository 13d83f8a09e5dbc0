"""Failure classification and retry/timeout/backoff policy.

Every execution layer — :meth:`repro.api.Simulator.run_many` workers,
the healed process-pool runner, the serve daemon's job queue — shares
one vocabulary for "what kind of failure is this and what may we do
about it": a typed :class:`FailureClass` assigned by :func:`classify`,
and a :class:`RetryPolicy` that turns attempt numbers into capped,
jittered backoff delays.

Jitter is deterministic: it is derived from the policy seed, the task
key, and the attempt number, never from ambient randomness, so a run
under the fault-injection harness replays bit-identically.
"""

from __future__ import annotations

import enum
import hashlib
import os
from concurrent.futures import BrokenExecutor
from dataclasses import dataclass, replace
from typing import Any, Optional

from repro.exceptions import (CamJError, ConfigurationError,
                              ExecutionTimeoutError, LeaseExpiredError,
                              TransientSimError, WorkerCrashError)

#: How many pool deaths one task may be implicated in before it is
#: quarantined as a :class:`repro.exceptions.WorkerCrashError` result.
QUARANTINE_THRESHOLD = 2

#: Environment knobs the default policy honors (all optional).
RETRY_ATTEMPTS_ENV = "REPRO_RETRY_MAX_ATTEMPTS"
RETRY_BASE_DELAY_ENV = "REPRO_RETRY_BASE_DELAY_S"
TASK_TIMEOUT_ENV = "REPRO_TASK_TIMEOUT_S"


class FailureClass(enum.Enum):
    """What a failure means for the task that hit it."""

    #: Expected to clear on retry: injected faults, I/O hiccups,
    #: connection drops.  Retried under the policy's backoff.
    TRANSIENT = "transient"
    #: A property of the design/options (infeasible timing, bad
    #: mapping) or a programming error: retrying cannot help.
    PERMANENT = "permanent"
    #: The per-task deadline expired.  Terminal unless the policy
    #: opts into retrying timeouts.
    TIMEOUT = "timeout"
    #: A worker process died underneath the task.  Retried on a healed
    #: pool until :data:`QUARANTINE_THRESHOLD` strikes.
    POOL_CRASH = "pool_crash"
    #: A distributed task's lease expired before its worker reported
    #: back (SIGKILL, partition, hang).  Re-dispatched with a strike
    #: against the task identity, like a pool crash.
    LEASE_EXPIRED = "lease_expired"


def classify(failure: Optional[BaseException]) -> FailureClass:
    """The :class:`FailureClass` of one captured failure.

    Works on both raw exceptions (raised out of executors) and the
    typed errors carried by failed :class:`~repro.api.result.SimResult`
    values.  ``None`` (no failure) classifies as permanent — "do not
    retry" is the safe answer for a question that should not be asked.
    """
    if isinstance(failure, TransientSimError):
        return FailureClass.TRANSIENT
    if isinstance(failure, ExecutionTimeoutError):
        return FailureClass.TIMEOUT
    if isinstance(failure, LeaseExpiredError):
        return FailureClass.LEASE_EXPIRED
    if isinstance(failure, WorkerCrashError):
        return FailureClass.POOL_CRASH
    if isinstance(failure, BrokenExecutor):
        return FailureClass.POOL_CRASH
    if isinstance(failure, CamJError):
        return FailureClass.PERMANENT
    if isinstance(failure, (OSError, ConnectionError)):
        return FailureClass.TRANSIENT
    return FailureClass.PERMANENT


@dataclass(frozen=True)
class RetryPolicy:
    """How hard one session tries before a failure becomes the answer.

    ``max_attempts``
        Total executions of one task (first try included).  ``1``
        disables retries entirely.
    ``base_delay_s`` / ``max_delay_s``
        Exponential backoff: attempt ``k`` (0-based) waits
        ``base * 2**k`` seconds, capped at ``max_delay_s``, plus
        deterministic jitter of up to ``jitter`` of the delay.
    ``timeout_s``
        Per-task deadline; ``None`` disables deadlines.  In process
        mode the deadline covers one attempt (the worker can be
        reclaimed); in thread mode it covers the whole task, from when
        its job starts running, since a running thread cannot be
        interrupted.
    ``retry_timeouts``
        Whether a deadline expiry is retried like a transient failure.
    ``seed``
        Namespace of the deterministic jitter.
    """

    max_attempts: int = 3
    base_delay_s: float = 0.05
    max_delay_s: float = 2.0
    jitter: float = 0.25
    timeout_s: Optional[float] = None
    retry_timeouts: bool = False
    seed: int = 0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ConfigurationError(
                f"max_attempts must be >= 1, got {self.max_attempts}")
        if self.base_delay_s < 0 or self.max_delay_s < 0:
            raise ConfigurationError("backoff delays must be >= 0")
        if not 0 <= self.jitter <= 1:
            raise ConfigurationError(
                f"jitter must be within [0, 1], got {self.jitter}")
        if self.timeout_s is not None and self.timeout_s <= 0:
            raise ConfigurationError(
                f"timeout_s must be positive or None, got {self.timeout_s}")

    def replace(self, **changes: Any) -> "RetryPolicy":
        """A copy with some fields changed."""
        return replace(self, **changes)

    def retryable(self, failure_class: FailureClass) -> bool:
        """Whether the policy re-runs a task that failed this way."""
        if failure_class is FailureClass.TRANSIENT:
            return True
        if failure_class is FailureClass.TIMEOUT:
            return self.retry_timeouts
        # PERMANENT is terminal; POOL_CRASH and LEASE_EXPIRED follow
        # the strike/quarantine path instead of plain retries.
        return False

    def should_retry(self, attempt: int,
                     failure: Optional[BaseException]) -> bool:
        """Whether a task whose 0-based ``attempt`` failed is re-run.

        The one retry decision every executor defers to: attempts must
        remain and the failure must be :meth:`retryable`.  ``None`` (the
        attempt succeeded) is never retried.
        """
        return (failure is not None and attempt + 1 < self.max_attempts
                and self.retryable(classify(failure)))

    def backoff_s(self, attempt: int, key: Any = None) -> float:
        """Delay before re-running ``key`` after failed attempt ``attempt``.

        Exponential in the attempt number, capped, with deterministic
        jitter derived from ``(seed, key, attempt)`` — two sessions with
        the same policy replay the same waits.
        """
        if self.base_delay_s == 0:
            return 0.0
        delay = min(self.base_delay_s * (2.0 ** max(attempt, 0)),
                    self.max_delay_s)
        if self.jitter == 0:
            return delay
        return delay * (1.0 + self.jitter * _unit_hash(
            f"{self.seed}:{key!r}:{attempt}"))

    @classmethod
    def from_env(cls, environ=None) -> "RetryPolicy":
        """The default policy, with environment overrides folded in."""
        environ = os.environ if environ is None else environ
        policy = cls()
        raw = environ.get(RETRY_ATTEMPTS_ENV, "").strip()
        if raw:
            try:
                policy = policy.replace(max_attempts=int(raw))
            except ValueError:
                raise ConfigurationError(
                    f"{RETRY_ATTEMPTS_ENV} must be an integer, "
                    f"got {raw!r}") from None
        raw = environ.get(RETRY_BASE_DELAY_ENV, "").strip()
        if raw:
            try:
                policy = policy.replace(base_delay_s=float(raw))
            except ValueError:
                raise ConfigurationError(
                    f"{RETRY_BASE_DELAY_ENV} must be a number, "
                    f"got {raw!r}") from None
        raw = environ.get(TASK_TIMEOUT_ENV, "").strip()
        if raw:
            try:
                policy = policy.replace(timeout_s=float(raw))
            except ValueError:
                raise ConfigurationError(
                    f"{TASK_TIMEOUT_ENV} must be a number, "
                    f"got {raw!r}") from None
        return policy


def _unit_hash(token: str) -> float:
    """A deterministic value in [0, 1) from one string token."""
    digest = hashlib.sha256(token.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") / 2.0 ** 64
