"""Digital compute units (Table 1, digital column).

:class:`ComputeUnit` is the generic pipelined-accelerator abstraction: it
reads a shaped group of pixels per cycle, produces a shaped group per cycle
after a fixed pipeline depth, and burns a fixed energy per active cycle.
:class:`SystolicArray` specializes it for DNN layers, where throughput is
MACs per cycle across the PE grid.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro import units
from repro.columns import total
from repro.exceptions import ConfigurationError
from repro.hw.digital.memory import DigitalMemory
from repro.hw.layer import SENSOR_LAYER

#: Default digital clock for CIS processing logic.
DEFAULT_CLOCK_HZ = 100.0 * units.MHz


class ComputeUnit:
    """A pipelined digital accelerator.

    Parameters
    ----------
    name:
        Unique identifier referenced by the mapping.
    layer:
        Layer the unit lives on.
    input_pixels_per_cycle:
        Shape of pixels consumed from the input memory each cycle (a single
        shape, or a list of shapes for multi-input units).
    output_pixels_per_cycle:
        Shape of pixels produced each cycle once the pipeline is full.
    energy_per_cycle:
        Energy burned per active cycle (user-supplied, from synthesis).
    num_stages:
        Pipeline depth in cycles.
    clock_hz:
        Operating clock; sets the cycle time for latency estimation.
    area:
        Optional silicon area for power-density estimation.
    """

    def __init__(self, name: str, layer: str = SENSOR_LAYER, *,
                 input_pixels_per_cycle: Sequence,
                 output_pixels_per_cycle: Sequence[int],
                 energy_per_cycle: float,
                 num_stages: int = 1,
                 clock_hz: float = DEFAULT_CLOCK_HZ,
                 area: float = 0.0):
        if not name:
            raise ConfigurationError("compute unit needs a non-empty name")
        if energy_per_cycle < 0:
            raise ConfigurationError(
                f"compute unit {name!r}: energy per cycle must be "
                f"non-negative, got {energy_per_cycle}")
        if num_stages < 1:
            raise ConfigurationError(
                f"compute unit {name!r}: pipeline depth must be >= 1, "
                f"got {num_stages}")
        if clock_hz <= 0:
            raise ConfigurationError(
                f"compute unit {name!r}: clock must be positive, "
                f"got {clock_hz}")
        if area < 0:
            raise ConfigurationError(
                f"compute unit {name!r}: area must be non-negative")
        self.name = name
        self.layer = layer
        self.input_pixels_per_cycle = _normalize_input_shapes(
            name, input_pixels_per_cycle)
        self.output_pixels_per_cycle = _validated_shape(
            name, output_pixels_per_cycle)
        self.energy_per_cycle = energy_per_cycle
        self.num_stages = num_stages
        self.clock_hz = clock_hz
        self.area = area
        self.input_memories: List[DigitalMemory] = []
        self.output_memory: Optional[DigitalMemory] = None
        self._is_sink = False

    # --- wiring -----------------------------------------------------------

    def set_input(self, memory: DigitalMemory) -> "ComputeUnit":
        """Attach an input memory (in stage order for multi-input units)."""
        self.input_memories.append(memory)
        return self

    def set_output(self, memory: DigitalMemory) -> "ComputeUnit":
        """Attach the output memory."""
        if self.output_memory is not None:
            raise ConfigurationError(
                f"compute unit {self.name!r} already has an output memory")
        self.output_memory = memory
        return self

    def set_sink(self) -> "ComputeUnit":
        """Mark this unit as the pipeline end (results leave via interface)."""
        self._is_sink = True
        return self

    @property
    def is_sink(self) -> bool:
        """Whether the unit terminates the digital pipeline."""
        return self._is_sink

    # --- throughput -----------------------------------------------------------

    @property
    def cycle_time(self) -> float:
        """Seconds per cycle."""
        return 1.0 / self.clock_hz

    @property
    def input_throughput(self) -> int:
        """Pixels consumed per cycle across all inputs."""
        return total(_volume(shape) for shape in self.input_pixels_per_cycle)

    @property
    def output_throughput(self) -> int:
        """Pixels produced per cycle once the pipeline is full."""
        return _volume(self.output_pixels_per_cycle)

    def active_cycles(self, output_pixels: float) -> float:
        """Cycles to produce ``output_pixels``, including pipeline fill."""
        if output_pixels < 0:
            raise ConfigurationError(
                f"compute unit {self.name!r}: output pixel count must be "
                f"non-negative, got {output_pixels}")
        if output_pixels == 0:
            return 0.0
        steady = output_pixels / self.output_throughput
        return steady + (self.num_stages - 1)

    def compute_energy(self, output_pixels: float) -> float:
        """Energy of producing ``output_pixels`` (Eq. 15)."""
        return self.active_cycles(output_pixels) * self.energy_per_cycle

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.name!r})"


class SystolicArray(ComputeUnit):
    """A systolic MAC grid for DNN layers.

    Throughput is ``rows * cols * utilization`` MACs per cycle; a stage
    mapped here provides its MAC count, and the cycle count follows.
    ``energy_per_mac`` defaults from the technology node via
    :func:`repro.tech.scaling.mac_energy` when not given.
    """

    def __init__(self, name: str, layer: str = SENSOR_LAYER, *,
                 dimensions: Sequence[int],
                 energy_per_mac: float,
                 utilization: float = 0.85,
                 num_stages: int = 2,
                 clock_hz: float = DEFAULT_CLOCK_HZ,
                 area: float = 0.0):
        if len(dimensions) != 2 or any(int(v) < 1 for v in dimensions):
            raise ConfigurationError(
                f"systolic array {name!r}: dimensions must be two positive "
                f"integers, got {dimensions}")
        if energy_per_mac < 0:
            raise ConfigurationError(
                f"systolic array {name!r}: energy per MAC must be "
                f"non-negative, got {energy_per_mac}")
        if not 0.0 < utilization <= 1.0:
            raise ConfigurationError(
                f"systolic array {name!r}: utilization must be in (0, 1], "
                f"got {utilization}")
        self.dimensions = tuple(int(v) for v in dimensions)
        self.energy_per_mac = energy_per_mac
        self.utilization = utilization
        rows, cols = self.dimensions
        macs_per_cycle = max(1, int(rows * cols * utilization))
        super().__init__(
            name, layer,
            input_pixels_per_cycle=[(rows, 1)],
            output_pixels_per_cycle=(1, 1),
            energy_per_cycle=macs_per_cycle * energy_per_mac,
            num_stages=num_stages,
            clock_hz=clock_hz,
            area=area)

    @property
    def macs_per_cycle(self) -> float:
        """Effective MAC throughput per cycle."""
        rows, cols = self.dimensions
        return rows * cols * self.utilization

    def cycles_for_macs(self, num_macs: float) -> float:
        """Cycles to execute ``num_macs`` multiply-accumulates."""
        if num_macs < 0:
            raise ConfigurationError(
                f"systolic array {self.name!r}: MAC count must be "
                f"non-negative, got {num_macs}")
        if num_macs == 0:
            return 0.0
        rows, cols = self.dimensions
        fill = rows + cols + self.num_stages - 2
        return num_macs / self.macs_per_cycle + fill

    def energy_for_macs(self, num_macs: float) -> float:
        """Energy of executing ``num_macs`` MACs."""
        return num_macs * self.energy_per_mac


def _normalize_input_shapes(name: str, shapes: Sequence) -> List[tuple]:
    """Accept one shape or a list of shapes; return a list of tuples."""
    if shapes and isinstance(shapes[0], (list, tuple)):
        return [_validated_shape(name, shape) for shape in shapes]
    return [_validated_shape(name, shapes)]


def _validated_shape(name: str, shape: Sequence[int]) -> tuple:
    values = tuple(int(v) for v in shape)
    if not values or any(v < 1 for v in values):
        raise ConfigurationError(
            f"compute unit {name!r}: shape must be positive integers, "
            f"got {shape}")
    return values


def _volume(shape: Sequence[int]) -> int:
    product = 1
    for value in shape:
        product *= value
    return product
