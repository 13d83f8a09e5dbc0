"""Fault tolerance for the execution stack.

This package is the shared vocabulary and machinery every execution
layer uses to survive failure instead of losing work:

* :mod:`repro.resilience.policy` — :class:`FailureClass` typing of
  failures (transient / permanent / timeout / pool crash), and the
  :class:`RetryPolicy` (attempts, per-task deadlines, capped
  exponential backoff with deterministic jitter) that
  :meth:`repro.api.Simulator.run_many` enforces per task;
* :mod:`repro.resilience.journal` — the crash-safe append-only JSONL
  write-ahead journal (:class:`JsonlJournal`) under ``repro serve
  --journal`` restart recovery;
* :mod:`repro.resilience.faults` — the deterministic, seeded
  fault-injection harness (:class:`FaultInjector`, configured via the
  ``REPRO_FAULTS`` environment variable) the resilience tests and the
  chaos CI jobs drive.
"""

from repro.resilience.faults import (
    FAULTS_ENV,
    FaultInjector,
    FaultPlan,
    get_injector,
    reset_injector,
)
from repro.resilience.journal import JsonlJournal
from repro.resilience.policy import (
    QUARANTINE_THRESHOLD,
    FailureClass,
    RetryPolicy,
    classify,
)

__all__ = [
    "FailureClass",
    "RetryPolicy",
    "classify",
    "QUARANTINE_THRESHOLD",
    "JsonlJournal",
    "FaultPlan",
    "FaultInjector",
    "FAULTS_ENV",
    "get_injector",
    "reset_injector",
]
