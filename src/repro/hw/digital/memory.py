"""Digital memory structures (Table 1, digital column).

CamJ supports the three structures common in image/vision pipelines:

* :class:`FIFO` — a ring of words between a producer and a consumer;
* :class:`LineBuffer` — a few image rows feeding a stencil engine [26, 68];
* :class:`DoubleBuffer` — ping-pong SRAM for frame- or tile-level reuse.

Per-access energies are user-supplied (Fig. 5 passes them inline) or pulled
from a :mod:`repro.memlib` model via :meth:`DigitalMemory.use_model`.
Leakage energy is ``P_leak * (1/FPS) * alpha`` with ``alpha`` the fraction
of the frame the memory cannot be power-gated (Eq. 16) — Ed-Gaze's frame
buffer famously needs ``alpha = 1``.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

from repro import units
from repro.columns import any_true
from repro.exceptions import ConfigurationError
from repro.hw.layer import SENSOR_LAYER


class DigitalMemory:
    """Base class of digital memory structures.

    Parameters
    ----------
    name:
        Unique identifier referenced by compute units and the mapping.
    layer:
        Layer the macro lives on.
    capacity_pixels:
        Number of pixels (words at ``pixels_per_word`` granularity) the
        structure can hold; the stall check uses this.
    write_energy_per_word / read_energy_per_word:
        Dynamic energy per word access.
    pixels_per_write_word / pixels_per_read_word:
        Pixels packed in one written/read word.
    leakage_power:
        Static power when the macro is on.
    duty_alpha:
        Fraction of the frame time the macro is powered (Eq. 16).
    num_read_ports / num_write_ports:
        Simultaneous accesses per cycle the structure supports.
    area:
        Optional macro area (square meters) for power-density estimation.
    """

    def __init__(self, name: str, layer: str = SENSOR_LAYER, *,
                 capacity_pixels: float,
                 write_energy_per_word: float,
                 read_energy_per_word: float,
                 pixels_per_write_word: int = 1,
                 pixels_per_read_word: int = 1,
                 leakage_power: float = 0.0,
                 duty_alpha: float = 1.0,
                 num_read_ports: int = 1,
                 num_write_ports: int = 1,
                 area: float = 0.0):
        if not name:
            raise ConfigurationError("digital memory needs a non-empty name")
        if capacity_pixels <= 0:
            raise ConfigurationError(
                f"memory {name!r}: capacity must be positive, "
                f"got {capacity_pixels}")
        if write_energy_per_word < 0 or read_energy_per_word < 0:
            raise ConfigurationError(
                f"memory {name!r}: access energies must be non-negative")
        if pixels_per_write_word < 1 or pixels_per_read_word < 1:
            raise ConfigurationError(
                f"memory {name!r}: pixels per word must be >= 1")
        if leakage_power < 0:
            raise ConfigurationError(
                f"memory {name!r}: leakage power must be non-negative")
        if not 0.0 <= duty_alpha <= 1.0:
            raise ConfigurationError(
                f"memory {name!r}: duty alpha must be in [0, 1], "
                f"got {duty_alpha}")
        if num_read_ports < 1 or num_write_ports < 1:
            raise ConfigurationError(
                f"memory {name!r}: port counts must be >= 1")
        if area < 0:
            raise ConfigurationError(
                f"memory {name!r}: area must be non-negative, got {area}")
        self.name = name
        self.layer = layer
        self.capacity_pixels = float(capacity_pixels)
        self.write_energy_per_word = write_energy_per_word
        self.read_energy_per_word = read_energy_per_word
        self.pixels_per_write_word = pixels_per_write_word
        self.pixels_per_read_word = pixels_per_read_word
        self.leakage_power = leakage_power
        self.duty_alpha = duty_alpha
        self.num_read_ports = num_read_ports
        self.num_write_ports = num_write_ports
        self.area = area

    @classmethod
    def _energies_from_model(cls, model) -> Tuple[float, float, float, float]:
        """Extract (write, read, leakage, area) scalars from a memlib model."""
        return (model.write_energy_per_word, model.read_energy_per_word,
                model.leakage_power, model.area)

    # --- energy (Eq. 16) --------------------------------------------------------

    def write_energy(self, pixels_written: float) -> float:
        """Dynamic energy of writing ``pixels_written`` pixels."""
        if pixels_written < 0:
            raise ConfigurationError(
                f"memory {self.name!r}: pixel count must be non-negative")
        words = pixels_written / self.pixels_per_write_word
        return words * self.write_energy_per_word

    def read_energy(self, pixels_read: float) -> float:
        """Dynamic energy of reading ``pixels_read`` pixels."""
        if pixels_read < 0:
            raise ConfigurationError(
                f"memory {self.name!r}: pixel count must be non-negative")
        words = pixels_read / self.pixels_per_read_word
        return words * self.read_energy_per_word

    def leakage_energy(self, frame_time: float) -> float:
        """Leakage over the powered fraction of one frame (Eq. 16).

        ``frame_time`` may be a per-point column (:mod:`repro.columns`).
        """
        if any_true(frame_time <= 0):
            raise ConfigurationError(
                f"memory {self.name!r}: frame time must be positive")
        return self.leakage_power * frame_time * self.duty_alpha

    def __repr__(self) -> str:
        return (f"{type(self).__name__}({self.name!r}, "
                f"capacity={self.capacity_pixels:g}px)")


class FIFO(DigitalMemory):
    """First-in first-out queue between a producer and a consumer."""

    def __init__(self, name: str, layer: str = SENSOR_LAYER, *,
                 size: Sequence[int],
                 write_energy_per_word: float = 0.0,
                 read_energy_per_word: float = 0.0,
                 **kwargs):
        capacity = _shape_volume(name, size)
        super().__init__(name, layer, capacity_pixels=capacity,
                         write_energy_per_word=write_energy_per_word,
                         read_energy_per_word=read_energy_per_word, **kwargs)
        self.size = tuple(int(v) for v in size)


class LineBuffer(DigitalMemory):
    """A few image rows buffered for a stencil consumer (Fig. 5)."""

    def __init__(self, name: str, layer: str = SENSOR_LAYER, *,
                 size: Sequence[int],
                 write_energy_per_word: float = 0.0,
                 read_energy_per_word: float = 0.0,
                 **kwargs):
        if len(size) != 2:
            raise ConfigurationError(
                f"line buffer {name!r}: size must be (rows, cols), got {size}")
        capacity = _shape_volume(name, size)
        # Each buffered row conventionally exposes its own read port so a
        # stencil consumer can fetch one full window column per cycle.
        kwargs.setdefault("num_read_ports", int(size[0]))
        super().__init__(name, layer, capacity_pixels=capacity,
                         write_energy_per_word=write_energy_per_word,
                         read_energy_per_word=read_energy_per_word, **kwargs)
        self.size = tuple(int(v) for v in size)

    @property
    def num_rows(self) -> int:
        """Buffered rows — must cover the consumer's kernel height."""
        return self.size[0]

    @property
    def row_length(self) -> int:
        """Pixels per buffered row."""
        return self.size[1]


class DoubleBuffer(DigitalMemory):
    """Ping-pong SRAM (or NVM) for frame- or tile-granularity reuse.

    A double buffer decouples producer and consumer rates at frame
    granularity: the consumer works on the previous buffer while the
    producer fills the other.  The stall check therefore only requires one
    frame's worth of producer output to fit (``capacity_bytes``), not
    rate matching.
    """

    def __init__(self, name: str, layer: str = SENSOR_LAYER, *,
                 size: Sequence[int],
                 write_energy_per_word: float = 0.0,
                 read_energy_per_word: float = 0.0,
                 capacity_bytes: Optional[float] = None,
                 **kwargs):
        capacity = _shape_volume(name, size)
        super().__init__(name, layer, capacity_pixels=capacity,
                         write_energy_per_word=write_energy_per_word,
                         read_energy_per_word=read_energy_per_word, **kwargs)
        self.size = tuple(int(v) for v in size)
        #: Byte capacity for the frame-fit check (defaults to one byte per
        #: pixel slot).
        self.capacity_bytes = (float(capacity_bytes)
                               if capacity_bytes is not None
                               else float(capacity))

    @classmethod
    def from_model(cls, name: str, model, layer: str = SENSOR_LAYER,
                   duty_alpha: float = 1.0,
                   pixels_per_word: Optional[int] = None,
                   num_read_ports: int = 4,
                   num_write_ports: int = 4) -> "DoubleBuffer":
        """Build a double buffer whose scalars come from a memlib model.

        ``model`` is any object with the memlib interface (SRAMModel,
        STTRAMModel).  Capacity in pixels assumes 8-bit pixels unless
        ``pixels_per_word`` overrides the packing.  Large macros are banked,
        so a few parallel ports per buffer half is the default.
        """
        write, read, leak, area = cls._energies_from_model(model)
        if pixels_per_word is None:
            pixels_per_word = max(1, model.word_bits // 8)
        return cls(name, layer,
                   size=(int(model.capacity_bytes), 1),
                   write_energy_per_word=write,
                   read_energy_per_word=read,
                   leakage_power=leak,
                   duty_alpha=duty_alpha,
                   capacity_bytes=model.capacity_bytes,
                   pixels_per_write_word=pixels_per_word,
                   pixels_per_read_word=pixels_per_word,
                   num_read_ports=num_read_ports,
                   num_write_ports=num_write_ports,
                   area=area)


def _shape_volume(name: str, shape: Sequence[int]) -> int:
    values = tuple(int(v) for v in shape)
    if not values or any(v < 1 for v in values):
        raise ConfigurationError(
            f"memory {name!r}: size must be positive integers, got {shape}")
    volume = 1
    for value in values:
        volume *= value
    return volume
