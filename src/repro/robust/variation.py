"""Deterministic, seed-addressed variation over design parameters.

A :class:`VariationModel` names the physical quantities that vary —
*parameter groups* addressing fields of the ``repro.design/1`` payload,
e.g. ``memory.leakage_power`` or ``analog.load_capacitance`` — and a
relative spread for each.  Sampling is a **pure function** of
``(seed, sample index, parameter name)``: every draw hashes that triple
(SHA-256 -> uniforms -> truncated normal), so an ensemble replays
bit-identically across thread and process executors, across restarts,
and regardless of evaluation order.  Sample ``0`` is reserved for the
nominal design and always draws factor ``1.0`` for every parameter.

Perturbation happens on the serialized design payload.  The nominal
design is encoded once; each sample copies only the containers a
parameter group writes (copy-on-write — stages, mapping and wiring are
shared), multiplies the addressed numeric fields, and decodes just the
hardware system.  The perturbed :class:`~repro.api.design.Design` reuses
the nominal's stage graph and mapping, and gets its own content hash,
so the session cache, batch dedup, and the disk tier all work
untouched.  An all-ones factor set short-circuits to the original
design object — the zero-variation ensemble is the nominal path, bit
for bit.

A sample's content hash is not re-encoded from the sample.  Each nominal
is compiled once into a *canonical template*: its canonical JSON (the
text :attr:`Design.content_hash` hashes) split at every leaf a
parameter group writes.  A sample formats just those leaves — the
nominal value times its groups' factors, in the order
:func:`perturb_payload` multiplies them, written as the JSON encoder
writes numbers — joins the pieces and hashes the bytes, which are the
bytes a full re-encode would produce.

Named PVT corners (:func:`corner_set`) compile the first-order physics
of :mod:`repro.tech.corners` into the same parameter-group vocabulary,
so ``corners()`` and ``monte_carlo()`` speak one language.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import re
import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import (Any, Callable, Dict, Iterable, List, Mapping, Optional,
                    Tuple)

from repro.api import serialize
from repro.api.design import Design
from repro.columns import total
from repro.exceptions import ConfigurationError, SerializationError
from repro.tech.corners import PvtPoint, standard_pvt_points

#: Supported sampling distributions of relative parameter spread.
DISTRIBUTIONS = ("normal", "uniform")

#: Reserved sample index of the unperturbed design.
NOMINAL_SAMPLE = 0

#: Half-width of a unit-variance uniform distribution.
_UNIFORM_HALF_WIDTH = math.sqrt(3.0)

_TWO_PI = 2.0 * math.pi
_U64 = float(2 ** 64)


# --- parameter groups ------------------------------------------------------

def _scale(container: Dict[str, Any], key: str, factor: float) -> int:
    value = container.get(key)
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        return 0
    container[key] = value * factor
    return 1


def _memories(system: Dict[str, Any], key: str,
              factor: float) -> int:
    return total(_scale(memory, key, factor)
                 for memory in system.get("memories", []))


def _compute_units(system: Dict[str, Any], key: str, factor: float,
                   unit_type: str = "") -> int:
    return total(_scale(unit, key, factor)
                 for unit in system.get("compute_units", [])
                 if not unit_type or unit.get("type") == unit_type)


def _interfaces(system: Dict[str, Any], factor: float) -> int:
    return total(_scale(system[role], "energy_per_byte", factor)
                 for role in ("offchip_interface", "interlayer_interface")
                 if isinstance(system.get(role), dict))


def _analog_cells(system: Dict[str, Any]) -> Iterable[Dict[str, Any]]:
    for array in system.get("analog_arrays", []):
        for entry in array.get("components", []):
            for usage in entry.get("component", {}).get("cells", []):
                yield usage.get("cell", {})


def _cells(system: Dict[str, Any], key: str, factor: float,
           cell_types: Tuple[str, ...]) -> int:
    return total(_scale(cell, key, factor)
                 for cell in _analog_cells(system)
                 if cell.get("type") in cell_types)


def _dynamic_nodes(system: Dict[str, Any], factor: float) -> int:
    touched = 0
    for cell in _analog_cells(system):
        if cell.get("type") != "dynamic":
            continue
        for node in cell.get("nodes", []):
            node[0] = node[0] * factor
            touched += 1
    return touched


#: Parameter group name -> in-place multiplier over one system payload.
#: Each applier returns how many concrete fields it touched; a group a
#: design simply lacks (e.g. analog cells in an all-digital system) is
#: a silent no-op — the draw still happens, keeping streams aligned.
PARAMETER_GROUPS: Dict[str, Callable[[Dict[str, Any], float], int]] = {
    "memory.write_energy_per_word":
        lambda s, f: _memories(s, "write_energy_per_word", f),
    "memory.read_energy_per_word":
        lambda s, f: _memories(s, "read_energy_per_word", f),
    "memory.leakage_power":
        lambda s, f: _memories(s, "leakage_power", f),
    "compute.energy_per_cycle":
        lambda s, f: _compute_units(s, "energy_per_cycle", f, "ComputeUnit"),
    "compute.energy_per_mac":
        lambda s, f: _compute_units(s, "energy_per_mac", f, "SystolicArray"),
    "compute.clock_hz":
        lambda s, f: _compute_units(s, "clock_hz", f),
    "interface.energy_per_byte": _interfaces,
    "analog.load_capacitance":
        lambda s, f: _cells(s, "load_capacitance", f, ("static",)),
    "analog.node_capacitance": _dynamic_nodes,
    "analog.voltage_swing":
        lambda s, f: _cells(s, "voltage_swing", f, ("static",)),
    "analog.vdda":
        lambda s, f: _cells(s, "vdda", f, ("static", "single_slope")),
    "analog.energy_per_conversion":
        lambda s, f: _cells(s, "energy_per_conversion", f, ("nonlinear",)),
    "analog.comparator_bias":
        lambda s, f: _cells(s, "comparator_bias", f, ("single_slope",)),
    "analog.counter_energy_per_step":
        lambda s, f: _cells(s, "counter_energy_per_step", f,
                            ("single_slope",)),
}


def _check_params(params: Iterable[str], where: str) -> None:
    unknown = sorted(set(params) - set(PARAMETER_GROUPS))
    if unknown:
        raise ConfigurationError(
            f"{where}: unknown parameter group(s) {unknown}; "
            f"known: {sorted(PARAMETER_GROUPS)}")


def _check_factors(factors: Mapping[str, float], where: str) -> None:
    _check_params(factors, where)
    for param, factor in factors.items():
        if not isinstance(factor, (int, float)) or not math.isfinite(factor):
            raise ConfigurationError(
                f"{where}: factor[{param!r}] must be a finite number, "
                f"got {factor!r}")


#: The payload containers the appliers above write, as a copy plan: a
#: dict names the keys whose values are copied in turn (the dict itself
#: is copied shallowly), ``[plan]`` copies a list and each element by
#: ``plan``, ``[]`` copies a list shallowly.  Everything else is shared.
_WRITTEN = {"system": {
    "memories": [{}],
    "compute_units": [{}],
    "offchip_interface": {},
    "interlayer_interface": {},
    "analog_arrays": [{"components": [{"component": {"cells": [
        {"cell": {"nodes": [[]]}}]}}]}],
}}


def _copy_written(value: Any, plan: Any) -> Any:
    """``value`` copied along ``plan``, sharing every subtree it omits."""
    if isinstance(plan, list):
        if not isinstance(value, (list, tuple)):
            return value
        if not plan:
            return list(value)
        return [_copy_written(item, plan[0]) for item in value]
    if not isinstance(value, dict):
        return value
    copied = dict(value)
    for key, inner in plan.items():
        if key in copied:
            copied[key] = _copy_written(copied[key], inner)
    return copied


def _apply(payload: Dict[str, Any],
           factors: Mapping[str, float]) -> Dict[str, Any]:
    perturbed = _copy_written(payload, _WRITTEN)
    system = perturbed.get("system", {})
    for param in sorted(factors):
        factor = factors[param]
        if factor != 1.0:
            PARAMETER_GROUPS[param](system, factor)
    return perturbed


def perturb_payload(payload: Dict[str, Any],
                    factors: Mapping[str, float]) -> Dict[str, Any]:
    """``payload`` with ``factors`` multiplied in, leaving it unchanged.

    Only the containers a parameter group writes are copied; untouched
    subtrees (stages, mapping, layers, wiring lists) are shared with the
    input, so treat the result as read-only.  Every factor must be a
    finite number.
    """
    _check_factors(factors, "perturb_payload")
    return _apply(payload, factors)


# --- canonical templates ---------------------------------------------------

class _Hole(float):
    """A leaf the appliers scaled while a template compiled: its nominal
    value and the groups that scaled it, in application order."""

    __slots__ = ("base", "groups")

    def __new__(cls, base: Any, groups: Tuple[str, ...]) -> "_Hole":
        hole = super().__new__(cls, base)
        hole.base, hole.groups = base, groups
        return hole

    def __mul__(self, factor: Any) -> Any:
        # A second group scaling the same leaf.
        return factor.__rmul__(self)


class _Recorder(float):
    """The factor a template compile hands one group's applier: each
    leaf the applier multiplies by it becomes a :class:`_Hole`."""

    __slots__ = ("group",)

    def __new__(cls, group: str) -> "_Recorder":
        recorder = super().__new__(cls, 1.0)
        recorder.group = group
        return recorder

    def __rmul__(self, value: Any) -> Any:
        if isinstance(value, _Hole):
            return _Hole(value.base, value.groups + (self.group,))
        if isinstance(value, (int, float)):
            return _Hole(value, (self.group,))
        return NotImplemented


def _take_holes(node: Any, holes: List[_Hole]) -> None:
    """Swap every hole under ``node`` for the string ``"\\x00<index>"``."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, value in items:
        if isinstance(value, _Hole):
            node[key] = f"\x00{len(holes)}"
            holes.append(value)
        else:
            _take_holes(value, holes)


_HOLE_TEXT = re.compile(r'"\\u0000(\d+)"')

#: ``(head, holes)``: the canonical JSON before the first hole, then per
#: hole ``(nominal value, groups, nominal JSON text, JSON up to the next
#: hole)``.
_Template = Tuple[str, Tuple[Tuple[Any, Tuple[str, ...], str, str], ...]]


def _compile_template(payload: Dict[str, Any]) -> Optional[_Template]:
    """The canonical JSON of ``payload`` split at every leaf a parameter
    group writes (``None`` if the payload's own strings mimic a hole).

    The appliers run once, on a plan-copy, with a :class:`_Recorder` as
    the factor, so they stay the one statement of what each group
    writes; a leaf two groups scale records both, in sorted order.
    """
    marked = _copy_written(payload, _WRITTEN)
    system = marked.get("system", {})
    for group in sorted(PARAMETER_GROUPS):
        PARAMETER_GROUPS[group](system, _Recorder(group))
    holes: List[_Hole] = []
    _take_holes(system, holes)
    pieces = _HOLE_TEXT.split(json.dumps(marked, sort_keys=True,
                                         separators=(",", ":")))
    order = [int(index) for index in pieces[1::2]]
    if sorted(order) != list(range(len(holes))):
        return None
    return pieces[0], tuple(
        (holes[index].base, holes[index].groups,
         json.dumps(holes[index].base), tail)
        for index, tail in zip(order, pieces[2::2]))


def _json_number(value: Any) -> str:
    """``value`` as the JSON encoder writes it."""
    if isinstance(value, float):
        return float.__repr__(value) if math.isfinite(value) \
            else json.dumps(value)
    return int.__repr__(value)


def _template_hash(template: _Template,
                   active: Mapping[str, float]) -> str:
    """The content hash of the nominal scaled by ``active`` (factors
    other than ``1.0``): the same products as :func:`perturb_payload`,
    and a leaf no active group scales keeps its nominal text."""
    head, holes = template
    parts = [head]
    for base, groups, nominal, tail in holes:
        value, scaled = base, False
        for group in groups:
            if group in active:
                value, scaled = value * active[group], True
        parts.append(_json_number(value) if scaled else nominal)
        parts.append(tail)
    return hashlib.sha256("".join(parts).encode("utf-8")).hexdigest()


#: Recently perturbed designs, keyed by (base content hash, applied
#: factors).  Draws are pure in (seed, sample, param), so replaying a
#: study regenerates the exact same factor sets — memoizing the decoded
#: designs lets warm ensembles skip the payload copy/decode entirely
#: and ride the result cache at full speed.
_PERTURBED_LIMIT = 1024
_perturbed_cache: "OrderedDict[Tuple[str, Tuple[Tuple[str, float], ...]], Design]" = OrderedDict()
#: Recently perturbed base designs' payloads and canonical templates,
#: keyed by content hash, so an ensemble encodes and compiles its
#: nominal once rather than once per sample.  Read-only: perturbed
#: payloads share their untouched subtrees.
_NOMINAL_LIMIT = 16
_nominal_payloads: "OrderedDict[str, Dict[str, Any]]" = OrderedDict()
_templates: "OrderedDict[str, Optional[_Template]]" = OrderedDict()
_perturbed_lock = threading.Lock()
_MISSING = object()


def _memoized(memo: "OrderedDict[Any, Any]", key: Any,
              build: Callable[[], Any], limit: int) -> Any:
    """``memo[key]``, built outside the lock on a miss; LRU-bounded."""
    with _perturbed_lock:
        value = memo.get(key, _MISSING)
        if value is not _MISSING:
            memo.move_to_end(key)
            return value
    value = build()
    with _perturbed_lock:
        memo[key] = value
        while len(memo) > limit:
            memo.popitem(last=False)
    return value


def _nominal_payload(design: Design, base_hash: str) -> Dict[str, Any]:
    return _memoized(_nominal_payloads, base_hash, design.to_dict,
                     _NOMINAL_LIMIT)


def perturb_design(design: Design,
                   factors: Mapping[str, float]) -> Design:
    """``design`` with ``factors`` applied; the identical object when
    every factor is exactly ``1.0`` (the nominal path, bit for bit).

    Only the hardware system is re-decoded: the perturbed design shares
    ``design``'s stage graph and mapping objects.  Its content hash is
    set from the nominal's canonical template (see the module notes),
    never by re-encoding the sample, and equals the hash a full
    re-encode gives.  Perturbed designs are memoized per (base design,
    factor set) — an ensemble replayed with the same seed returns the
    same design objects, so the simulator's content-hash cache serves
    it without re-decoding anything.  Every factor must be a finite
    number.
    """
    active = tuple((param, factors[param]) for param in sorted(factors)
                   if factors[param] != 1.0)
    if not active:
        _check_params(factors, "perturb_design")
        return design
    # A design without a canonical form raises SerializationError here.
    base_hash = design.content_hash

    def build() -> Design:
        # Checked on a miss only: a factor set that fails is never
        # memoized, so a hit was checked when it was built.
        _check_factors(factors, "perturb_design")
        payload = _nominal_payload(design, base_hash)
        template = _memoized(_templates, base_hash,
                             lambda: _compile_template(payload),
                             _NOMINAL_LIMIT)
        parts = (design.graph,
                 serialize.decode_system(_apply(payload, factors)["system"]),
                 design.mapping)
        if template is None:
            return Design(*parts, name=design.name)
        return Design._with_content_hash(
            _template_hash(template, dict(active)), *parts,
            name=design.name)

    return _memoized(_perturbed_cache, (base_hash, active), build,
                     _PERTURBED_LIMIT)


# --- deterministic draws ---------------------------------------------------

def _hash_uniforms(seed: int, sample: int, param: str,
                   attempt: int) -> Tuple[float, float]:
    """Two uniforms from one addressed SHA-256 digest.

    The first lands in the open interval (0, 1) — safe under ``log`` —
    and the second in [0, 1).
    """
    key = f"{seed}|{sample}|{param}|{attempt}".encode("utf-8")
    digest = hashlib.sha256(key).digest()
    first = int.from_bytes(digest[:8], "big")
    second = int.from_bytes(digest[8:16], "big")
    return (first + 1.0) / (_U64 + 2.0), second / _U64


def standard_draw(seed: int, sample: int, param: str, *,
                  dist: str = "normal", cutoff: float = 3.0) -> float:
    """One unit-scale draw, pure in ``(seed, sample, param)``.

    ``normal`` is a Box-Muller standard normal, redrawn (with an
    attempt counter folded into the hash) until it lands within
    ``cutoff`` standard deviations; ``uniform`` is unit-variance,
    spanning ``+/- sqrt(3)``.
    """
    for attempt in itertools.count():
        u1, u2 = _hash_uniforms(seed, sample, param, attempt)
        if dist == "uniform":
            return _UNIFORM_HALF_WIDTH * (2.0 * u1 - 1.0)
        z = math.sqrt(-2.0 * math.log(u1)) * math.cos(_TWO_PI * u2)
        if abs(z) <= cutoff:
            return z
    raise AssertionError("unreachable")  # pragma: no cover


@dataclass(frozen=True)
class VariationModel:
    """Relative spreads over parameter groups, deterministically sampled.

    ``sigma`` maps parameter-group names to relative standard
    deviations (0.05 = 5%).  ``dist`` picks the sampling distribution;
    normal draws are truncated at ``cutoff`` sigmas, which both keeps
    physical quantities positive and gives :func:`worst_case` a finite
    extreme to evaluate.
    """

    sigma: Mapping[str, float]
    dist: str = "normal"
    cutoff: float = 3.0

    def __post_init__(self) -> None:
        _check_params(self.sigma, "variation model")
        if self.dist not in DISTRIBUTIONS:
            raise ConfigurationError(
                f"variation dist must be one of {DISTRIBUTIONS}, "
                f"got {self.dist!r}")
        if not self.cutoff > 0:
            raise ConfigurationError(
                f"variation cutoff must be > 0, got {self.cutoff}")
        for param, sigma in self.sigma.items():
            if not isinstance(sigma, (int, float)) or not sigma >= 0:
                raise ConfigurationError(
                    f"sigma[{param!r}] must be a number >= 0, got {sigma!r}")
            if self.extent_of(float(sigma)) >= 1.0:
                raise ConfigurationError(
                    f"sigma[{param!r}]={sigma} reaches factor <= 0 at the "
                    f"{self.dist} extreme; shrink sigma or the cutoff")
        object.__setattr__(self, "sigma",
                           {param: float(self.sigma[param])
                            for param in sorted(self.sigma)})

    # --- structure --------------------------------------------------------

    @property
    def params(self) -> Tuple[str, ...]:
        return tuple(self.sigma)

    @property
    def is_zero(self) -> bool:
        return all(sigma == 0.0 for sigma in self.sigma.values())

    def extent_of(self, sigma: float) -> float:
        """The worst-direction relative excursion for one spread."""
        width = self.cutoff if self.dist == "normal" else _UNIFORM_HALF_WIDTH
        return width * sigma

    def extent(self, param: str) -> float:
        return self.extent_of(self.sigma.get(param, 0.0))

    # --- sampling ---------------------------------------------------------

    def factor(self, seed: int, sample: int, param: str) -> float:
        """The multiplicative factor of one draw — pure and replayable."""
        sigma = self.sigma.get(param, 0.0)
        if sample == NOMINAL_SAMPLE or sigma == 0.0:
            return 1.0
        draw = standard_draw(seed, sample, param,
                             dist=self.dist, cutoff=self.cutoff)
        return 1.0 + sigma * draw

    def factors(self, seed: int, sample: int) -> Dict[str, float]:
        return {param: self.factor(seed, sample, param)
                for param in self.sigma}

    def extreme_corners(self) -> List["Corner"]:
        """The all-low / all-high box corners of the truncated model."""
        return [
            Corner("all-low", {param: 1.0 - self.extent(param)
                               for param in self.sigma}),
            Corner("all-high", {param: 1.0 + self.extent(param)
                                for param in self.sigma}),
        ]

    # --- serialization ----------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        return {"sigma": dict(self.sigma), "dist": self.dist,
                "cutoff": self.cutoff}

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "VariationModel":
        if not isinstance(payload, Mapping):
            raise SerializationError(
                f"variation model must be an object, "
                f"got {type(payload).__name__}")
        unknown = set(payload) - {"sigma", "dist", "cutoff"}
        if unknown:
            raise SerializationError(
                f"unknown variation model keys: {sorted(unknown)}")
        sigma = payload.get("sigma")
        if not isinstance(sigma, Mapping):
            raise SerializationError("variation model needs a 'sigma' map")
        return cls(sigma=dict(sigma),
                   dist=payload.get("dist", "normal"),
                   cutoff=payload.get("cutoff", 3.0))


#: Moderate all-around spreads: 5% on energies and capacitances, 10% on
#: leakage (it varies far more than switching energy in practice), 2%
#: on clocks and supplies.
DEFAULT_SIGMA: Dict[str, float] = {
    "memory.write_energy_per_word": 0.05,
    "memory.read_energy_per_word": 0.05,
    "memory.leakage_power": 0.10,
    "compute.energy_per_cycle": 0.05,
    "compute.energy_per_mac": 0.05,
    "compute.clock_hz": 0.02,
    "interface.energy_per_byte": 0.05,
    "analog.load_capacitance": 0.05,
    "analog.node_capacitance": 0.05,
    "analog.vdda": 0.02,
    "analog.energy_per_conversion": 0.05,
}


def default_variation(scale: float = 1.0) -> VariationModel:
    """The stock model, optionally scaled (``scale=0`` -> zero model)."""
    return VariationModel(sigma={param: sigma * scale
                                 for param, sigma in DEFAULT_SIGMA.items()})


# --- corners ---------------------------------------------------------------

@dataclass(frozen=True)
class Corner:
    """One named set of parameter-group factors."""

    name: str
    factors: Mapping[str, float]

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigurationError("corner name must be non-empty")
        _check_params(self.factors, f"corner {self.name!r}")
        for param, factor in self.factors.items():
            if not isinstance(factor, (int, float)) or not factor > 0 \
                    or not math.isfinite(factor):
                raise ConfigurationError(
                    f"corner {self.name!r}: factor[{param!r}] must be a "
                    f"finite number > 0, got {factor!r}")
        object.__setattr__(self, "factors",
                           {param: float(self.factors[param])
                            for param in sorted(self.factors)})

    def to_dict(self) -> Dict[str, Any]:
        return {"name": self.name, "factors": dict(self.factors)}

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "Corner":
        if not isinstance(payload, Mapping) or "name" not in payload \
                or "factors" not in payload:
            raise SerializationError(
                "corner must be an object with 'name' and 'factors'")
        unknown = set(payload) - {"name", "factors"}
        if unknown:
            raise SerializationError(
                f"unknown corner keys: {sorted(unknown)}")
        return cls(name=payload["name"], factors=dict(payload["factors"]))


def corner_from_pvt(point: PvtPoint) -> Corner:
    """Compile one PVT operating point into parameter-group factors."""
    dynamic = point.dynamic_energy_factor()
    return Corner(point.name, {
        "memory.write_energy_per_word": dynamic,
        "memory.read_energy_per_word": dynamic,
        "memory.leakage_power": point.leakage_power_factor(),
        "compute.energy_per_cycle": dynamic,
        "compute.energy_per_mac": dynamic,
        "compute.clock_hz": point.clock_factor(),
        "interface.energy_per_byte": dynamic,
        "analog.vdda": point.supply_factor(),
        "analog.voltage_swing": point.supply_factor(),
        "analog.energy_per_conversion": dynamic,
        "analog.counter_energy_per_step": dynamic,
    })


#: Named corner-set builders usable anywhere a corner list is accepted.
CORNER_SETS: Dict[str, Callable[[], List[Corner]]] = {
    "pvt": lambda: [corner_from_pvt(point)
                    for point in standard_pvt_points()],
}


def corner_set(name: str) -> List[Corner]:
    """The corners of one named set (see :data:`CORNER_SETS`)."""
    if name not in CORNER_SETS:
        raise ConfigurationError(
            f"unknown corner set {name!r}; known: {sorted(CORNER_SETS)}")
    return CORNER_SETS[name]()
