"""The first-class design object: one complete, serializable scenario.

A :class:`Design` bundles the paper's three-part programming interface
(Fig. 5) — the algorithm :class:`~repro.sw.dag.StageGraph`, the hardware
:class:`~repro.hw.chip.SensorSystem`, and the
:class:`~repro.sim.mapping.Mapping` between them — into a single frozen
value that can be hashed, serialized to JSON, stored, diffed, and
replayed.  Its parts are the :attr:`~Design.stages`,
:attr:`~Design.system` and :attr:`~Design.mapping` properties.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Dict, List, Optional, Sequence, Union

from repro.api import serialize
from repro.exceptions import ConfigurationError, SerializationError
from repro.hw.chip import SensorSystem
from repro.sim.mapping import Mapping
from repro.sw.dag import StageGraph
from repro.sw.stage import Stage


class Design:
    """A frozen ``(stages, system, mapping)`` bundle.

    Parameters
    ----------
    stages:
        A :class:`StageGraph` or the plain stage list of ``camj_sw_config``.
    system:
        The hardware description.
    mapping:
        A :class:`Mapping` or the plain dict of ``camj_mapping``.
    name:
        Optional label; defaults to the system name.

    The mapping is validated against both descriptions at construction,
    so an inconsistent design fails fast rather than at simulation time.
    Freezing is shallow: the bundled objects are not copied, and mutating
    them after construction invalidates the cached content hash.
    """

    __slots__ = ("_stages", "_graph", "_system", "_mapping", "_name",
                 "_hash_cache", "_resolved_cache", "_checks_cache",
                 "_pass_memo")

    def __init__(self, stages: Union[StageGraph, Sequence[Stage]],
                 system: SensorSystem,
                 mapping: Union[Mapping, Dict[str, str]],
                 name: Optional[str] = None):
        if isinstance(stages, StageGraph):
            graph = stages
            stage_list = list(stages.stages)
        else:
            stage_list = list(stages)
            graph = StageGraph(stage_list)
        mapping = mapping if isinstance(mapping, Mapping) else Mapping(mapping)
        mapping.validate(graph, system)
        object.__setattr__(self, "_stages", stage_list)
        object.__setattr__(self, "_graph", graph)
        object.__setattr__(self, "_system", system)
        object.__setattr__(self, "_mapping", mapping)
        object.__setattr__(self, "_name",
                           name if name is not None else system.name)
        object.__setattr__(self, "_hash_cache", None)
        object.__setattr__(self, "_resolved_cache", None)
        object.__setattr__(self, "_checks_cache", None)
        object.__setattr__(self, "_pass_memo", None)

    # --- frozen-ness ------------------------------------------------------

    def __setattr__(self, attr: str, value: Any) -> None:
        raise AttributeError(
            f"Design is frozen; cannot set {attr!r}")

    def __delattr__(self, attr: str) -> None:
        raise AttributeError(
            f"Design is frozen; cannot delete {attr!r}")

    # --- the three parts ----------------------------------------------------

    @property
    def name(self) -> str:
        """Human-readable label of the scenario."""
        return self._name

    @property
    def stages(self) -> List[Stage]:
        """The algorithm stages, in declaration order."""
        return list(self._stages)

    @property
    def graph(self) -> StageGraph:
        """The validated algorithm DAG."""
        return self._graph

    @property
    def system(self) -> SensorSystem:
        """The hardware description."""
        return self._system

    @property
    def mapping(self) -> Mapping:
        """The stage-to-hardware mapping."""
        return self._mapping

    @property
    def resolved_units(self) -> Dict[str, Any]:
        """Stage name -> hardware unit object, resolved once and cached.

        The mapping was validated at construction, so resolution skips
        re-validation; the engine threads this dict through every phase
        of a run instead of re-resolving.
        """
        cached = self._resolved_cache
        if cached is None:
            cached = self._mapping.resolve(self._graph, self._system,
                                           validate=False)
            object.__setattr__(self, "_resolved_cache", cached)
        return cached

    @property
    def pass_memo(self):
        """This design's memo of design-only simulation pass outputs.

        The engine's passes (:data:`repro.sim.simulator.SIM_PASSES`)
        that read nothing but the design — the digital timeline, the
        analog usage walk, the cycle-accurate latency, the
        communication energy — memoize here, so sweeping options over
        one design object re-runs only the option-dependent passes.
        :class:`~repro.api.Simulator` sessions additionally share one
        memo per content hash across independently built twins.
        """
        from repro.sim.simulator import PassMemo

        cached = self._pass_memo
        if cached is None:
            cached = PassMemo()
            object.__setattr__(self, "_pass_memo", cached)
        return cached

    def ensure_checked(self) -> None:
        """Run the pre-simulation design checks exactly once.

        The checks depend only on the design, never on simulation
        options, so their outcome — pass or the raised
        :class:`~repro.exceptions.CheckError` — is memoized.  Sessions
        re-running one design across many options (frame-rate sweeps,
        cycle-accurate validation passes) pay for the check walk once.
        """
        from repro.sim.checks import run_pre_simulation_checks

        cached = self._checks_cache
        if cached is None:
            try:
                run_pre_simulation_checks(self._graph, self._system,
                                          self._mapping,
                                          resolved=self.resolved_units)
            except Exception as error:
                object.__setattr__(self, "_checks_cache", error)
                raise
            object.__setattr__(self, "_checks_cache", True)
        elif cached is not True:
            # Raise a fresh instance per call: re-raising the memoized one
            # would mutate its shared __traceback__ and alias one object
            # across every captured SimResult.
            raise type(cached)(*cached.args) from cached

    # --- serialization ----------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        """Versioned, JSON-compatible payload (see ``repro.api.serialize``)."""
        return serialize.encode_design(self._stages, self._system,
                                       self._mapping, name=self._name)

    @classmethod
    def _with_content_hash(cls, content_hash: str, *args: Any,
                           **kwargs: Any) -> "Design":
        """A design whose canonical form is known to hash to
        ``content_hash``, so :attr:`content_hash` never re-encodes it.

        For derived designs whose hash is cheaper to compute from their
        parent's canonical form (perturbed Monte Carlo samples).
        """
        design = cls(*args, **kwargs)
        object.__setattr__(design, "_hash_cache", content_hash)
        return design

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "Design":
        """Inverse of :meth:`to_dict`."""
        graph, system, mapping, name = serialize.decode_design_parts(payload)
        return cls(graph, system, mapping, name=name)

    def to_json(self, indent: Optional[int] = 2) -> str:
        """The design as a JSON document."""
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, document: str) -> "Design":
        """Inverse of :meth:`to_json`."""
        try:
            payload = json.loads(document)
        except json.JSONDecodeError as error:
            raise SerializationError(
                f"design document is not valid JSON: {error}") from error
        return cls.from_dict(payload)

    def save(self, path) -> None:
        """Write the design spec to ``path`` as JSON."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(self.to_json() + "\n")

    @classmethod
    def load(cls, path) -> "Design":
        """Read a design spec written by :meth:`save`."""
        with open(path, "r", encoding="utf-8") as handle:
            return cls.from_json(handle.read())

    # --- identity ---------------------------------------------------------

    @property
    def content_hash(self) -> str:
        """Stable SHA-256 over the canonical serialized form.

        Two designs built independently from the same parameters hash
        identically; the hash keys the :class:`~repro.api.Simulator`
        result cache and names archived reports.
        """
        cached = self._hash_cache
        if cached is None:
            try:
                canonical = json.dumps(self.to_dict(), sort_keys=True,
                                       separators=(",", ":"))
            except SerializationError as error:
                # Remember the failure too: custom-typed designs would
                # otherwise re-walk the whole tree on every hash/eq/key.
                object.__setattr__(self, "_hash_cache", error)
                raise
            cached = hashlib.sha256(canonical.encode("utf-8")).hexdigest()
            object.__setattr__(self, "_hash_cache", cached)
        if isinstance(cached, SerializationError):
            raise cached
        return cached

    def _content_hash_or_none(self) -> Optional[str]:
        try:
            return self.content_hash
        except SerializationError:
            # Custom stage/cell/unit types simulate fine but have no
            # canonical form; such designs fall back to identity.
            return None

    def __eq__(self, other: Any) -> bool:
        if not isinstance(other, Design):
            return NotImplemented
        if self is other:
            return True
        ours, theirs = self._content_hash_or_none(), \
            other._content_hash_or_none()
        if ours is None or theirs is None:
            return False
        return ours == theirs

    def __hash__(self) -> int:
        digest = self._content_hash_or_none()
        return hash(digest) if digest is not None else id(self)

    def __repr__(self) -> str:
        try:
            digest = self.content_hash[:12]
        except SerializationError:
            digest = "<unhashable>"
        return (f"Design({self._name!r}, stages={len(self._stages)}, "
                f"hash={digest})")


def require_design(built: Any, builder: Any) -> Design:
    """``built``, checked to be a :class:`Design`.

    ``builder`` is what produced it: a callable, or a label such as
    ``"usecase 'fig5'"``.  Any other result is a
    :class:`~repro.exceptions.ConfigurationError` naming the builder and
    the type it returned.
    """
    if isinstance(built, Design):
        return built
    label = builder if isinstance(builder, str) else \
        f"builder {getattr(builder, '__qualname__', repr(builder))}"
    raise ConfigurationError(
        f"{label} returned {type(built).__name__}, not a Design")
