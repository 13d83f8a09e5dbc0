"""The sensor system: layers, analog arrays, digital units, interfaces.

:class:`SensorSystem` is the container the ``camj_hw_config`` function of
Fig. 5 builds: it owns the layer stack, every hardware unit, and the two
communication interfaces, and offers the lookups the simulator needs.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Union

from repro import units
from repro.columns import total
from repro.exceptions import ConfigurationError
from repro.hw.analog.array import AnalogArray
from repro.hw.digital.compute import ComputeUnit
from repro.hw.digital.memory import DigitalMemory
from repro.hw.interface import Interface, MIPI_CSI2, MicroTSV
from repro.hw.layer import Layer, OFF_CHIP, SENSOR_LAYER

HardwareUnit = Union[AnalogArray, ComputeUnit, DigitalMemory]


class SensorSystem:
    """A complete (possibly stacked) computational CIS description."""

    def __init__(self, name: str = "CIS",
                 layers: Optional[Sequence[Layer]] = None):
        if not name:
            raise ConfigurationError("sensor system needs a non-empty name")
        self.name = name
        self.layers: Dict[str, Layer] = {}
        for layer in layers or [Layer(SENSOR_LAYER, 65)]:
            self.add_layer(layer)
        self.analog_arrays: List[AnalogArray] = []
        self.compute_units: List[ComputeUnit] = []
        self.memories: List[DigitalMemory] = []
        self.offchip_interface: Interface = MIPI_CSI2()
        self.interlayer_interface: Interface = MicroTSV()
        self._pixel_array_dims: Optional[tuple] = None
        self._pixel_pitch: float = 3.0 * units.um

    # --- construction -----------------------------------------------------

    def add_layer(self, layer: Layer) -> "SensorSystem":
        """Add a die to the stack; the off-chip 'layer' is implicit."""
        if layer.name in self.layers:
            raise ConfigurationError(
                f"duplicate layer {layer.name!r} in system {self.name!r}")
        if layer.name == OFF_CHIP:
            raise ConfigurationError(
                f"layer name {OFF_CHIP!r} is reserved for the host SoC; "
                f"add it via add_offchip_host()")
        self.layers[layer.name] = layer
        return self

    def add_offchip_host(self, node_nm: float) -> "SensorSystem":
        """Declare the host SoC as the off-chip processing target."""
        self.layers[OFF_CHIP] = Layer(OFF_CHIP, node_nm)
        return self

    def add_analog_array(self, array: AnalogArray) -> "SensorSystem":
        """Register an analog functional array."""
        self._check_new_unit(array)
        self.analog_arrays.append(array)
        return self

    def add_compute_unit(self, unit: ComputeUnit) -> "SensorSystem":
        """Register a digital compute unit."""
        self._check_new_unit(unit)
        self.compute_units.append(unit)
        return self

    def add_memory(self, memory: DigitalMemory) -> "SensorSystem":
        """Register a digital memory structure."""
        self._check_new_unit(memory)
        self.memories.append(memory)
        return self

    def set_offchip_interface(self, interface: Interface) -> "SensorSystem":
        """Override the off-sensor interface (defaults to MIPI CSI-2)."""
        self.offchip_interface = interface
        return self

    def set_interlayer_interface(self, interface: Interface) -> "SensorSystem":
        """Override the inter-layer interface (defaults to uTSV)."""
        self.interlayer_interface = interface
        return self

    def set_pixel_array_geometry(self, rows: int, cols: int,
                                 pitch: float = 3.0 * units.um
                                 ) -> "SensorSystem":
        """Pixel-array dimensions and pitch for area/power-density modeling."""
        if rows < 1 or cols < 1:
            raise ConfigurationError(
                f"pixel array dims must be positive, got {rows}x{cols}")
        if pitch <= 0:
            raise ConfigurationError(
                f"pixel pitch must be positive, got {pitch}")
        self._pixel_array_dims = (rows, cols)
        self._pixel_pitch = pitch
        return self

    def _check_new_unit(self, unit: HardwareUnit) -> None:
        if unit.layer not in self.layers:
            known = ", ".join(sorted(self.layers))
            raise ConfigurationError(
                f"unit {unit.name!r} placed on unknown layer "
                f"{unit.layer!r}; known layers: {known}")
        if unit.name in self._unit_names():
            raise ConfigurationError(
                f"duplicate hardware unit name {unit.name!r}")

    # --- lookups --------------------------------------------------------------

    def _unit_names(self) -> Dict[str, HardwareUnit]:
        names: Dict[str, HardwareUnit] = {}
        for unit in self.all_units():
            names[unit.name] = unit
        return names

    def all_units(self) -> List[HardwareUnit]:
        """Every registered hardware unit."""
        return [*self.analog_arrays, *self.compute_units, *self.memories]

    def find_unit(self, name: str) -> HardwareUnit:
        """Unit by name; raises :class:`ConfigurationError` if absent."""
        for unit in self.all_units():
            if unit.name == name:
                return unit
        raise ConfigurationError(
            f"system {self.name!r} has no hardware unit named {name!r}")

    def layer_of(self, unit: HardwareUnit) -> Layer:
        """The layer a unit lives on."""
        return self.layers[unit.layer]

    @property
    def is_stacked(self) -> bool:
        """Whether the system is a 3D design (2+ on-chip layers)."""
        on_chip = [n for n in self.layers if n != OFF_CHIP]
        return len(on_chip) > 1

    # --- geometry ---------------------------------------------------------------

    @property
    def pixel_array_dims(self) -> Optional[tuple]:
        """``(rows, cols)`` of the pixel array, if declared."""
        return self._pixel_array_dims

    @property
    def pixel_pitch(self) -> float:
        """Pixel pitch in meters."""
        return self._pixel_pitch

    @property
    def pixel_array_area(self) -> float:
        """Pixel-array silicon area (the paper's analog-area proxy)."""
        if self._pixel_array_dims is None:
            return 0.0
        rows, cols = self._pixel_array_dims
        return rows * cols * self._pixel_pitch ** 2

    def memory_area(self, layer_name: Optional[str] = None) -> float:
        """Total digital memory area (the paper's digital-area proxy)."""
        return total(m.area for m in self.memories
                     if layer_name is None or m.layer == layer_name)

    def describe(self) -> str:
        """Multi-line inventory of the system."""
        lines = [f"SensorSystem {self.name!r}"]
        for layer in self.layers.values():
            lines.append(f"  layer {layer.name!r} @ {layer.node_nm:.0f} nm")
        for array in self.analog_arrays:
            lines.append(f"  analog  {array.name!r} ({array.num_components} "
                         f"components) on {array.layer!r}")
        for memory in self.memories:
            lines.append(f"  memory  {memory.name!r} "
                         f"({memory.capacity_pixels:g} px) on "
                         f"{memory.layer!r}")
        for unit in self.compute_units:
            lines.append(f"  compute {unit.name!r} on {unit.layer!r}")
        return "\n".join(lines)
