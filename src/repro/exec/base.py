"""The executor abstraction behind :meth:`repro.api.Simulator.run_many`.

A :class:`SimulationExecutor` is the strategy object that takes one
batch's cache-missing jobs and turns them into results: inline in the
calling thread, fanned across a thread or process pool, or sharded to
remote worker processes over the dispatch work queue.  The
:class:`~repro.api.Simulator` session owns the result cache and the
retry policy and passes itself into
:meth:`SimulationExecutor.run_pending`; each backend owns its own
persistent pool, which :meth:`SimulationExecutor.close` releases.  One
attempt loop (``Simulator._run_attempts``) and one retry predicate
(:meth:`~repro.resilience.policy.RetryPolicy.should_retry`) serve every
backend.

Backends are looked up by name through :mod:`repro.exec.registry`;
``Simulator(executor="thread")`` and friends resolve there, and the
``REPRO_EXECUTOR`` environment variable picks the default backend for
sessions that do not name one.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import TYPE_CHECKING, Any, Dict, Optional, Tuple

from repro.exceptions import ExecutionTimeoutError, WorkerCrashError
from repro.resilience.policy import FailureClass, classify

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.api.result import SimOptions, SimResult

#: Environment variable naming the default executor backend for
#: sessions constructed without an explicit ``executor=`` argument.
EXECUTOR_ENV = "REPRO_EXECUTOR"

#: Sentinel first element of batch keys for unserializable designs:
#: such jobs still fan out to workers but bypass dedup and the cache.
UNCACHED = object()


def cacheable_result(result: "SimResult") -> bool:
    """Whether a result is a property of its ``(design, options)`` key.

    Reports and permanent failures are; transient, timeout, and
    worker-crash outcomes describe one unlucky execution, and caching
    them would turn a recoverable hiccup into a sticky failure that
    every retry would then hit.
    """
    return result.ok or classify(result.error) is FailureClass.PERMANENT


def timeout_result(design, options: "SimOptions",
                   design_hash: Optional[str], timeout_s: float,
                   deadline: str = "deadline") -> "SimResult":
    """The typed result of a task that outlived its ``timeout_s``."""
    from repro.api.result import SimResult  # repro.api imports this module

    return SimResult(
        design_name=design.name, options=options, design_hash=design_hash,
        error=ExecutionTimeoutError(
            f"task {design.name!r} exceeded the {timeout_s:g}s {deadline}"),
        elapsed_s=timeout_s)


def quarantined_result(design, options: "SimOptions",
                       design_hash: Optional[str],
                       strikes: str) -> "SimResult":
    """The typed result of a task quarantined for killing its workers."""
    from repro.api.result import SimResult  # repro.api imports this module

    return SimResult(
        design_name=design.name, options=options, design_hash=design_hash,
        error=WorkerCrashError(
            f"design {design.name!r} {strikes} and is quarantined"))


class SimulationExecutor(ABC):
    """Strategy interface for executing one batch's unique pending jobs.

    ``run_pending(session, pending, max_workers, worker_ids, counters)``
    receives the calling :class:`~repro.api.Simulator` session, the
    ``{key: (design, options)}`` jobs that missed the cache, the batch's
    worker budget, a set to record the distinct workers used (thread
    idents, process pids, or remote worker ids — only the cardinality is
    observed), and the batch's mutable resilience counters.  It must
    return ``{key: SimResult}`` for every pending key.  Retries go
    through the session's one attempt loop or its policy's
    ``should_retry``; cache writes go through the session's ``_store``
    and ``_count_misses``.  Any pool belongs to the executor itself.
    """

    #: Registry name of the backend (also what ``pool_info()`` reports).
    name: str = "?"

    #: Backends that ship serialized payloads to other processes cannot
    #: run designs whose parts do not serialize; ``run_many`` executes
    #: those inline in the calling thread instead of handing them over.
    requires_serializable: bool = False

    @abstractmethod
    def run_pending(self, session, pending: Dict[Any, Tuple],
                    max_workers: int, worker_ids: set,
                    counters) -> Dict[Any, "SimResult"]:
        """Execute every pending job; return ``{key: SimResult}``."""

    def pool_width_floor(self) -> int:
        """Lower bound on the batch's worker budget (pool reuse).

        Pool-backed executors return the width of the pool they already
        grew so a narrow follow-up batch keeps reporting (and reusing)
        the wide pool instead of shrinking it.
        """
        return 0

    def pool_widths(self) -> Dict[str, int]:
        """Width of each persistent pool held, by kind (``pool_info()``)."""
        return {}

    def describe(self) -> Dict[str, Any]:
        """Introspection document for dashboards (``/stats``)."""
        return {"backend": self.name,
                "requires_serializable": self.requires_serializable}

    def close(self, wait: bool = True, *,
              cancel_pending: bool = False) -> None:
        """Release executor-owned pools; later batches recreate them."""
