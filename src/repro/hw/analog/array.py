"""Analog Functional Arrays (AFAs).

An :class:`AnalogArray` groups identical (or chained) A-Components into the
structural unit algorithms are mapped onto: the pixel array, the column-ADC
array, an analog-PE array, an analog frame buffer, ...

Access counting follows Eq. 3: stencil regularity means every component in
an AFA is accessed the same number of times, namely the operations mapped
to the AFA divided by the component count.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.columns import any_true, total
from repro.exceptions import ConfigurationError
from repro.hw.analog.components import AnalogComponent, _volume
from repro.hw.analog.domain import SignalDomain
from repro.hw.layer import SENSOR_LAYER


class AnalogArray:
    """One analog functional array on one layer of the sensor stack.

    Parameters
    ----------
    name:
        Unique identifier referenced by the mapping.
    layer:
        Name of the layer the array lives on (see :mod:`repro.hw.layer`).
    num_input / num_output:
        Shape of elements the array consumes/produces per array step; the
        handshake check compares these across producer/consumer arrays.
    """

    #: Valid values for the report category of an array.
    CATEGORIES = ("sensing", "compute", "memory")

    def __init__(self, name: str, layer: str = SENSOR_LAYER,
                 num_input: Sequence[int] = (1, 1),
                 num_output: Sequence[int] = (1, 1),
                 category: Optional[str] = None):
        if not name:
            raise ConfigurationError("analog array needs a non-empty name")
        if category is not None and category not in self.CATEGORIES:
            raise ConfigurationError(
                f"analog array {name!r}: category must be one of "
                f"{self.CATEGORIES}, got {category!r}")
        self.name = name
        self.layer = layer
        self.num_input = tuple(int(v) for v in num_input)
        self.num_output = tuple(int(v) for v in num_output)
        if any(v < 1 for v in self.num_input + self.num_output):
            raise ConfigurationError(
                f"analog array {name!r}: shapes must be positive integers")
        self._category = category
        self._entries: List[Tuple[AnalogComponent, int]] = []
        self.output_arrays: List["AnalogArray"] = []
        self.input_arrays: List["AnalogArray"] = []
        self.output_memories: List[object] = []

    # --- construction -----------------------------------------------------

    def add_component(self, component: AnalogComponent,
                      shape: Sequence[int]) -> "AnalogArray":
        """Place ``shape`` copies of ``component`` into the array."""
        count = _volume(tuple(int(v) for v in shape))
        if count < 1:
            raise ConfigurationError(
                f"analog array {self.name!r}: component count must be >= 1")
        if any(component.name == existing.name
               for existing, _ in self._entries):
            raise ConfigurationError(
                f"analog array {self.name!r}: duplicate component "
                f"{component.name!r}")
        self._entries.append((component, count))
        return self

    def set_output(self, consumer) -> "AnalogArray":
        """Wire this array's output into another array or a digital memory.

        Accepts an :class:`AnalogArray` (analog chain hop) or any digital
        memory object (the A/D hand-off point, e.g. the line buffer of
        Fig. 5).
        """
        if consumer is self:
            raise ConfigurationError(
                f"analog array {self.name!r} cannot feed itself")
        if isinstance(consumer, AnalogArray):
            if consumer not in self.output_arrays:
                self.output_arrays.append(consumer)
                consumer.input_arrays.append(self)
        else:
            if consumer not in self.output_memories:
                self.output_memories.append(consumer)
        return self

    # --- introspection ------------------------------------------------------

    @property
    def components(self) -> List[Tuple[AnalogComponent, int]]:
        """``(component, count)`` entries in signal-flow order."""
        return list(self._entries)

    @property
    def num_components(self) -> int:
        """Total component instances across all entries."""
        return total(count for _, count in self._entries)

    @property
    def input_domain(self) -> SignalDomain:
        """Input domain of the first component in the chain."""
        self._require_components()
        return self._entries[0][0].input_domain

    @property
    def output_domain(self) -> SignalDomain:
        """Output domain of the last component in the chain."""
        self._require_components()
        return self._entries[-1][0].output_domain

    def _require_components(self) -> None:
        if not self._entries:
            raise ConfigurationError(
                f"analog array {self.name!r} has no components")

    @property
    def category(self) -> str:
        """Report category: explicit, or inferred from the component chain.

        Arrays touching the optical domain or performing A/D conversion are
        *sensing* (the paper's SEN rollup); everything else defaults to
        *compute* — analog memories should be tagged explicitly.
        """
        if self._category is not None:
            return self._category
        self._require_components()
        for component, _ in self._entries:
            if component.input_domain is SignalDomain.OPTICAL:
                return "sensing"
            if (component.input_domain.is_analog
                    and component.output_domain is SignalDomain.DIGITAL):
                return "sensing"
        return "compute"

    # --- access counting and energy (Eqs. 2-3) --------------------------------

    def component_access_counts(self, ops: float) -> Dict[str, float]:
        """Per-component access counts for ``ops`` operations (Eq. 3)."""
        self._require_components()
        if ops < 0:
            raise ConfigurationError(
                f"analog array {self.name!r}: ops must be non-negative, "
                f"got {ops}")
        return {component.name: ops / count
                for component, count in self._entries}

    def energy_breakdown(self, ops: float, array_delay: float,
                         ) -> Dict[str, float]:
        """Per-component energy for ``ops`` operations within ``array_delay``.

        Each component instance performs ``ops / count`` accesses serially
        within the array delay, so its per-access delay is the array delay
        divided by that access count (never less than one access worth —
        an underutilized component simply idles).  ``array_delay`` may be a
        per-point column (:mod:`repro.columns`).
        """
        self._require_components()
        if any_true(array_delay <= 0):
            raise ConfigurationError(
                f"analog array {self.name!r}: delay must be positive, "
                f"got {array_delay}")
        breakdown: Dict[str, float] = {}
        for component, count in self._entries:
            accesses_per_component = ops / count
            per_access_delay = array_delay / max(1.0, accesses_per_component)
            per_access = component.energy_per_access(per_access_delay)
            breakdown[component.name] = per_access * ops
        return breakdown

    def energy(self, ops: float, array_delay: float) -> float:
        """Total array energy for ``ops`` operations (Eq. 2 restricted here)."""
        return total(self.energy_breakdown(ops, array_delay).values())

    def describe(self) -> str:
        """Multi-line summary of the array contents."""
        lines = [f"AnalogArray {self.name!r} on layer {self.layer!r}"]
        for component, count in self._entries:
            lines.append(f"  {count} x {component.describe()}")
        return "\n".join(lines)

    def __repr__(self) -> str:
        return f"AnalogArray({self.name!r}, components={self.num_components})"
