"""A-Cells: the leaf analog circuit cells (Sec. 4.2).

Every analog component is internally built from A-Cells.  The paper groups
them in three classes with distinct energy physics:

* :class:`DynamicCell` — energy is charged/discharged capacitance,
  ``E = sum(C_i * Vswing_i**2)`` (Eq. 5), with capacitors sized from the
  kT/C thermal-noise limit of the target data resolution (Eq. 6);
* :class:`StaticCell` — energy is a bias current integrated over the time
  the cell is statically biased, ``E = Vdda * Ibias * t_static`` (Eq. 7),
  with two ways to estimate ``Ibias`` (Eq. 8–10);
* :class:`NonLinearCell` — ADCs/comparators, estimated from the Walden FoM
  survey (Eq. 12).

Cell energies are evaluated lazily against a timing context because static
and non-linear cells depend on the delay the pipeline allocates to them
(Sec. 4.1); dynamic cells ignore timing.  The stock cells also take a
per-point column of delays (:mod:`repro.columns`): the same formulas then
give one energy per point.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from typing import Optional, Sequence, Tuple

from repro import units
from repro.columns import any_true, total
from repro.exceptions import ConfigurationError
from repro.hw.analog.adc_fom import adc_energy_per_conversion

#: Default analog supply voltage.
DEFAULT_VDDA = 1.8 * units.V
#: Default gm/Id inversion-level factor (technology-insensitive, 10..20).
DEFAULT_GM_ID = 15.0


class AnalogCell(ABC):
    """Base class of all A-Cells.

    Subclasses implement :meth:`energy`, which receives the timing context
    allocated by the delay estimator:

    ``cell_delay``
        the settling time budgeted for this cell's own operation (determines
        bandwidth / sampling rate);
    ``static_time``
        the total time the cell remains statically biased (Eq. 11); for
        purely dynamic cells this is irrelevant.
    """

    def __init__(self, name: str):
        if not name:
            raise ConfigurationError("analog cell needs a non-empty name")
        self.name = name

    @abstractmethod
    def energy(self, cell_delay: float, static_time: Optional[float] = None
               ) -> float:
        """Energy of one activation of this cell, in joules."""

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.name!r})"


class DynamicCell(AnalogCell):
    """A-Cell whose energy is pure capacitor charge/discharge (Eq. 5).

    ``nodes`` is the list of ``(capacitance, voltage_swing)`` pairs of the
    capacitance nodes switched per activation.
    """

    def __init__(self, name: str,
                 nodes: Sequence[Tuple[float, float]]):
        super().__init__(name)
        if not nodes:
            raise ConfigurationError(
                f"dynamic cell {name!r} needs at least one capacitance node")
        for capacitance, swing in nodes:
            if capacitance <= 0:
                raise ConfigurationError(
                    f"dynamic cell {name!r}: capacitance must be positive, "
                    f"got {capacitance}")
            if swing < 0:
                raise ConfigurationError(
                    f"dynamic cell {name!r}: voltage swing must be "
                    f"non-negative, got {swing}")
        self.nodes = tuple((float(c), float(v)) for c, v in nodes)

    @classmethod
    def for_resolution(cls, name: str, voltage_swing: float, bits: int,
                       num_nodes: int = 1,
                       temperature: float = units.ROOM_TEMPERATURE
                       ) -> "DynamicCell":
        """Size the capacitors from the kT/C noise limit (Eq. 6)."""
        capacitance = units.capacitance_for_resolution(
            voltage_swing, bits, temperature=temperature)
        return cls(name, [(capacitance, voltage_swing)] * num_nodes)

    @property
    def total_capacitance(self) -> float:
        """Sum of all switched capacitances."""
        return total(c for c, _ in self.nodes)

    def energy(self, cell_delay: float, static_time: Optional[float] = None
               ) -> float:
        """``sum(C_i * V_i**2)`` — independent of timing."""
        return total(c * v ** 2 for c, v in self.nodes)


class StaticCell(AnalogCell):
    """A-Cell consuming a static bias current (Eq. 7).

    Two bias-current estimators are provided, matching the paper:

    * *direct drive* (Eq. 8–9): ``Ibias`` slews the load within the cell
      delay, so the energy reduces to ``Cload * Vswing * Vdda`` and is
      timing-independent;
    * *gm/Id* (Eq. 10): ``Ibias = 2*pi*Cload*GBW / (gm/Id)`` with
      ``GBW = gain * BW`` and ``BW = 1/cell_delay``; the energy is then
      ``Vdda * Ibias * t_static`` and grows with how long the cell stays
      biased relative to its settling time (e.g., an analog frame buffer
      biased over the whole frame).
    """

    _DIRECT = "direct"
    _GM_ID = "gm_id"

    def __init__(self, name: str, *, load_capacitance: float,
                 voltage_swing: float, vdda: float = DEFAULT_VDDA,
                 mode: str = _DIRECT, gain: float = 1.0,
                 gm_id: float = DEFAULT_GM_ID):
        super().__init__(name)
        if load_capacitance <= 0:
            raise ConfigurationError(
                f"static cell {name!r}: load capacitance must be positive, "
                f"got {load_capacitance}")
        if voltage_swing < 0:
            raise ConfigurationError(
                f"static cell {name!r}: voltage swing must be non-negative, "
                f"got {voltage_swing}")
        if vdda <= 0:
            raise ConfigurationError(
                f"static cell {name!r}: vdda must be positive, got {vdda}")
        if mode not in (self._DIRECT, self._GM_ID):
            raise ConfigurationError(
                f"static cell {name!r}: unknown mode {mode!r}")
        if gain <= 0:
            raise ConfigurationError(
                f"static cell {name!r}: gain must be positive, got {gain}")
        if not 5.0 <= gm_id <= 30.0:
            raise ConfigurationError(
                f"static cell {name!r}: gm/Id of {gm_id} outside the "
                f"plausible 5..30 range")
        self.load_capacitance = load_capacitance
        self.voltage_swing = voltage_swing
        self.vdda = vdda
        self.mode = mode
        self.gain = gain
        self.gm_id = gm_id

    @classmethod
    def direct_drive(cls, name: str, load_capacitance: float,
                     voltage_swing: float, vdda: float = DEFAULT_VDDA
                     ) -> "StaticCell":
        """Bias current directly slews the load (source follower, Eq. 8)."""
        return cls(name, load_capacitance=load_capacitance,
                   voltage_swing=voltage_swing, vdda=vdda, mode=cls._DIRECT)

    @classmethod
    def gm_id_biased(cls, name: str, load_capacitance: float,
                     gain: float, vdda: float = DEFAULT_VDDA,
                     gm_id: float = DEFAULT_GM_ID,
                     voltage_swing: float = 0.0) -> "StaticCell":
        """Differential amplifier biased via the gm/Id method (Eq. 10)."""
        return cls(name, load_capacitance=load_capacitance,
                   voltage_swing=voltage_swing, vdda=vdda, mode=cls._GM_ID,
                   gain=gain, gm_id=gm_id)

    def bias_current(self, cell_delay: float) -> float:
        """Estimated bias current given the allocated settling delay."""
        if any_true(cell_delay <= 0):
            raise ConfigurationError(
                f"static cell {self.name!r}: cell delay must be positive, "
                f"got {cell_delay}")
        if self.mode == self._DIRECT:
            return self.load_capacitance * self.voltage_swing / cell_delay
        bandwidth = 1.0 / cell_delay
        gbw = self.gain * bandwidth
        return 2.0 * math.pi * self.load_capacitance * gbw / self.gm_id

    def energy(self, cell_delay: float, static_time: Optional[float] = None
               ) -> float:
        """``Vdda * Ibias * t_static`` (Eq. 7)."""
        if static_time is None:
            static_time = cell_delay
        if any_true(static_time < 0):
            raise ConfigurationError(
                f"static cell {self.name!r}: static time must be "
                f"non-negative, got {static_time}")
        return self.vdda * self.bias_current(cell_delay) * static_time


class NonLinearCell(AnalogCell):
    """ADC-like A-Cell estimated from the Walden FoM survey (Eq. 12).

    ``energy_per_conversion`` may be supplied directly by expert users (e.g.
    when the original paper reports it); absent that, the median FoM at the
    cell's sampling rate (the reciprocal of its delay) is used.
    """

    def __init__(self, name: str, bits: int,
                 energy_per_conversion: Optional[float] = None):
        super().__init__(name)
        if bits < 1:
            raise ConfigurationError(
                f"non-linear cell {name!r}: resolution must be >= 1 bit, "
                f"got {bits}")
        if energy_per_conversion is not None and energy_per_conversion <= 0:
            raise ConfigurationError(
                f"non-linear cell {name!r}: energy per conversion must be "
                f"positive, got {energy_per_conversion}")
        self.bits = bits
        self.energy_per_conversion = energy_per_conversion

    def energy(self, cell_delay: float, static_time: Optional[float] = None
               ) -> float:
        """Energy of one conversion at the sampling rate ``1/cell_delay``."""
        if self.energy_per_conversion is not None:
            return self.energy_per_conversion
        if any_true(cell_delay <= 0):
            raise ConfigurationError(
                f"non-linear cell {self.name!r}: cell delay must be "
                f"positive, got {cell_delay}")
        sample_rate = 1.0 / cell_delay
        return adc_energy_per_conversion(sample_rate, self.bits)


# --- Concrete cells used by the default A-Component implementations ---------


def Photodiode(name: str = "PD", capacitance: float = 10 * units.fF,
               voltage_swing: float = 1.0 * units.V) -> DynamicCell:
    """Photodiode reset/integration node (dynamic)."""
    return DynamicCell(name, [(capacitance, voltage_swing)])


def FloatingDiffusion(name: str = "FD", capacitance: float = 2.0 * units.fF,
                      voltage_swing: float = 1.0 * units.V) -> DynamicCell:
    """Floating-diffusion charge-transfer node of a 4T pixel (dynamic)."""
    return DynamicCell(name, [(capacitance, voltage_swing)])


def SourceFollower(name: str = "SF",
                   load_capacitance: float = 1.0 * units.pF,
                   voltage_swing: float = 1.0 * units.V,
                   vdda: float = DEFAULT_VDDA) -> StaticCell:
    """In-pixel source follower driving the column line (static, Eq. 8)."""
    return StaticCell.direct_drive(name, load_capacitance, voltage_swing,
                                   vdda=vdda)


def OpAmp(name: str = "OpAmp", load_capacitance: float = 100 * units.fF,
          gain: float = 2.0, vdda: float = DEFAULT_VDDA,
          gm_id: float = DEFAULT_GM_ID) -> StaticCell:
    """Differential operational amplifier (static, gm/Id method, Eq. 10)."""
    return StaticCell.gm_id_biased(name, load_capacitance, gain,
                                   vdda=vdda, gm_id=gm_id)


def CapacitorArray(name: str = "CapArray", num_capacitors: int = 8,
                   unit_capacitance: float = 10 * units.fF,
                   voltage_swing: float = 1.0 * units.V) -> DynamicCell:
    """Switched-capacitor array, e.g. of a charge-redistribution MAC."""
    if num_capacitors < 1:
        raise ConfigurationError(
            f"capacitor array {name!r} needs >= 1 capacitor, "
            f"got {num_capacitors}")
    nodes = [(unit_capacitance, voltage_swing)] * num_capacitors
    return DynamicCell(name, nodes)


def ComparatorCell(name: str = "Comparator",
                   energy_per_conversion: Optional[float] = None
                   ) -> NonLinearCell:
    """Comparator — a 1-bit ADC per the paper."""
    return NonLinearCell(name, bits=1,
                         energy_per_conversion=energy_per_conversion)


def ADCCell(name: str = "ADC", bits: int = 10,
            energy_per_conversion: Optional[float] = None) -> NonLinearCell:
    """Full analog-to-digital converter of a given resolution."""
    return NonLinearCell(name, bits=bits,
                         energy_per_conversion=energy_per_conversion)


def CurrentMirrorCell(name: str = "CurrentMirror",
                      load_capacitance: float = 20 * units.fF,
                      voltage_swing: float = 0.5 * units.V,
                      vdda: float = DEFAULT_VDDA) -> StaticCell:
    """Current mirror for current-domain computation (static, Eq. 8)."""
    return StaticCell.direct_drive(name, load_capacitance, voltage_swing,
                                   vdda=vdda)

