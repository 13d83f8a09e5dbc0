"""A-Components: analog functional units built from A-Cells (Sec. 4.2).

An :class:`AnalogComponent` is the unit users place into an Analog
Functional Array (pixel, ADC, analog MAC, ...).  Its per-access energy is
the weighted sum of its constituting A-Cells (Eq. 4), with cell access
counts expressed as *spatial* x *temporal* multiplicities (Eq. 13) and the
component delay evenly allocated to the cells on its critical path
(Eq. 11).

The concrete components at the bottom of this module are the default
implementations the paper surveys from classic CIS designs; expert users
can build custom components from raw :class:`CellUsage` lists.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro import units
from repro.columns import any_true
from repro.exceptions import ConfigurationError
from repro.hw.analog.cells import (
    AnalogCell,
    ADCCell,
    CapacitorArray,
    ComparatorCell,
    CurrentMirrorCell,
    DEFAULT_VDDA,
    DynamicCell,
    FloatingDiffusion,
    OpAmp,
    Photodiode,
    SourceFollower,
    StaticCell,
)
from repro.hw.analog.domain import SignalDomain


@dataclass
class CellUsage:
    """How one A-Cell participates in a component access (Eq. 13).

    ``spatial``
        number of physical cell copies activated per access;
    ``temporal``
        number of times each copy fires per access (e.g. 2 for correlated
        double sampling);
    ``on_critical_path``
        whether the cell occupies a slot of the component delay budget; the
        paper notes all supported cells are uni-directional and hence on the
        critical path, but custom components may shunt auxiliary cells off;
    ``static_time``
        explicit override of the statically-biased duration (e.g. an analog
        frame buffer held for the whole frame); ``None`` derives it from the
        component delay allocation (Eq. 11).
    """

    cell: AnalogCell
    spatial: int = 1
    temporal: int = 1
    on_critical_path: bool = True
    static_time: Optional[float] = None

    def __post_init__(self) -> None:
        if self.spatial < 1:
            raise ConfigurationError(
                f"cell usage of {self.cell.name!r}: spatial count must be "
                f">= 1, got {self.spatial}")
        if self.temporal < 1:
            raise ConfigurationError(
                f"cell usage of {self.cell.name!r}: temporal count must be "
                f">= 1, got {self.temporal}")
        if self.static_time is not None and self.static_time < 0:
            raise ConfigurationError(
                f"cell usage of {self.cell.name!r}: static time must be "
                f"non-negative, got {self.static_time}")

    @property
    def access_count(self) -> int:
        """Total cell activations per component access (Eq. 13)."""
        return self.spatial * self.temporal


class AnalogComponent:
    """One analog functional unit with a cell-level energy model.

    Parameters
    ----------
    name:
        Unique human-readable identifier.
    input_domain / output_domain:
        Signal domains used by the viability check (Sec. 3.3).
    cell_usages:
        The A-Cells the component is built from.
    num_input / num_output:
        Shape of elements consumed/produced per access; used by the array
        handshake checks and by access counting for multi-input components
        (e.g. a binning pixel consuming a 2x2 tile).
    """

    def __init__(self, name: str, input_domain: SignalDomain,
                 output_domain: SignalDomain,
                 cell_usages: Sequence[CellUsage],
                 num_input: Sequence[int] = (1, 1),
                 num_output: Sequence[int] = (1, 1)):
        if not name:
            raise ConfigurationError("analog component needs a non-empty name")
        if not cell_usages:
            raise ConfigurationError(
                f"analog component {name!r} needs at least one cell")
        self.name = name
        self.input_domain = input_domain
        self.output_domain = output_domain
        self.cell_usages: List[CellUsage] = list(cell_usages)
        self.num_input = _validated_shape(name, "num_input", num_input)
        self.num_output = _validated_shape(name, "num_output", num_output)

    # --- shape helpers --------------------------------------------------------

    @property
    def input_volume(self) -> int:
        """Elements consumed per access."""
        return _volume(self.num_input)

    @property
    def output_volume(self) -> int:
        """Elements produced per access."""
        return _volume(self.num_output)

    # --- energy ---------------------------------------------------------------

    def _critical_path_usages(self) -> List[CellUsage]:
        return [u for u in self.cell_usages if u.on_critical_path]

    def energy_per_access(self, component_delay: float) -> float:
        """Energy of one component access given its allocated delay (Eq. 4).

        The delay is evenly split across critical-path cells; the j-th cell
        stays statically biased from its own activation until the end of the
        component access (Eq. 11), unless its usage carries an explicit
        ``static_time`` override.  ``component_delay`` may be a per-point
        column (:mod:`repro.columns`).
        """
        if any_true(component_delay <= 0):
            raise ConfigurationError(
                f"component {self.name!r}: delay must be positive, "
                f"got {component_delay}")
        critical = self._critical_path_usages()
        num_slots = max(1, len(critical))
        slot = component_delay / num_slots
        total = 0.0
        critical_index = 0
        for usage in self.cell_usages:
            if usage.on_critical_path:
                elapsed_before = critical_index * slot
                derived_static = component_delay - elapsed_before
                critical_index += 1
                cell_delay = slot
            else:
                derived_static = component_delay
                cell_delay = component_delay
            static_time = (usage.static_time if usage.static_time is not None
                           else derived_static)
            # A cell fired `temporal` times within its slot settles faster
            # and is biased for a proportionally shorter window per firing.
            per_fire_delay = cell_delay / usage.temporal
            per_fire_static = static_time / usage.temporal
            per_fire = usage.cell.energy(per_fire_delay, per_fire_static)
            total += per_fire * usage.access_count
        return total

    def describe(self) -> str:
        """One-line summary of the cell composition."""
        cells = ", ".join(
            f"{u.spatial}x{u.temporal} {u.cell.name}" for u in self.cell_usages)
        return (f"{self.name} [{self.input_domain} -> {self.output_domain}]"
                f" ({cells})")

    def __repr__(self) -> str:
        return f"AnalogComponent({self.name!r})"


def _validated_shape(owner: str, attr: str, shape: Sequence[int]) -> tuple:
    values = tuple(int(v) for v in shape)
    if not values or any(v < 1 for v in values):
        raise ConfigurationError(
            f"{owner!r}.{attr}: shape must be positive integers, got {shape}")
    return values


def _volume(shape: Sequence[int]) -> int:
    product = 1
    for value in shape:
        product *= value
    return product


# --- Default component implementations (Table 1) ----------------------------


def ActivePixelSensor(name: str = "APS",
                      num_transistors: int = 4,
                      pd_capacitance: float = 10 * units.fF,
                      fd_capacitance: float = 2.0 * units.fF,
                      load_capacitance: float = 1.0 * units.pF,
                      voltage_swing: float = 1.0 * units.V,
                      vdda: float = DEFAULT_VDDA,
                      num_shared_pixels: int = 1,
                      correlated_double_sampling: bool = False
                      ) -> AnalogComponent:
    """3T/4T active pixel sensor, optionally FD-shared for binning.

    A 4T APS is a photodiode + floating diffusion + source follower; a 3T
    APS omits the floating diffusion.  ``num_shared_pixels > 1`` models
    charge-domain binning where several photodiodes dump onto one readout
    chain (the ``(APS(4, ...), 4)`` implementation of Fig. 5).
    """
    if num_transistors not in (3, 4):
        raise ConfigurationError(
            f"APS {name!r}: only 3T and 4T pixels supported, "
            f"got {num_transistors}T")
    if num_shared_pixels < 1:
        raise ConfigurationError(
            f"APS {name!r}: num_shared_pixels must be >= 1, "
            f"got {num_shared_pixels}")
    temporal_reads = 2 if correlated_double_sampling else 1
    usages = [CellUsage(Photodiode(capacitance=pd_capacitance,
                                   voltage_swing=voltage_swing),
                        spatial=num_shared_pixels)]
    if num_transistors == 4:
        usages.append(CellUsage(FloatingDiffusion(capacitance=fd_capacitance,
                                                  voltage_swing=voltage_swing),
                                spatial=num_shared_pixels))
    usages.append(CellUsage(SourceFollower(load_capacitance=load_capacitance,
                                           voltage_swing=voltage_swing,
                                           vdda=vdda),
                            temporal=temporal_reads))
    side = int(round(math.sqrt(num_shared_pixels)))
    if side * side == num_shared_pixels:
        input_shape = (side, side)
    else:
        input_shape = (num_shared_pixels, 1)
    return AnalogComponent(name, SignalDomain.OPTICAL, SignalDomain.VOLTAGE,
                           usages, num_input=input_shape)


def DigitalPixelSensor(name: str = "DPS",
                       bits: int = 10,
                       pd_capacitance: float = 10 * units.fF,
                       load_capacitance: float = 50 * units.fF,
                       voltage_swing: float = 1.0 * units.V,
                       vdda: float = DEFAULT_VDDA,
                       adc_energy_per_conversion: Optional[float] = None
                       ) -> AnalogComponent:
    """Digital pixel sensor: pixel front-end plus a per-pixel ADC."""
    usages = [
        CellUsage(Photodiode(capacitance=pd_capacitance,
                             voltage_swing=voltage_swing)),
        CellUsage(SourceFollower(load_capacitance=load_capacitance,
                                 voltage_swing=voltage_swing, vdda=vdda)),
        CellUsage(ADCCell(bits=bits,
                          energy_per_conversion=adc_energy_per_conversion)),
    ]
    return AnalogComponent(name, SignalDomain.OPTICAL, SignalDomain.DIGITAL,
                           usages)


def PWMPixel(name: str = "PWMPixel",
             pd_capacitance: float = 10 * units.fF,
             voltage_swing: float = 1.0 * units.V,
             comparator_energy: Optional[float] = None) -> AnalogComponent:
    """Pulse-width-modulation pixel: light encoded as pulse timing."""
    usages = [
        CellUsage(Photodiode(capacitance=pd_capacitance,
                             voltage_swing=voltage_swing)),
        CellUsage(ComparatorCell(energy_per_conversion=comparator_energy)),
    ]
    return AnalogComponent(name, SignalDomain.OPTICAL, SignalDomain.TIME,
                           usages)


def ColumnADC(name: str = "ADC", bits: int = 10,
              energy_per_conversion: Optional[float] = None
              ) -> AnalogComponent:
    """Column-parallel (or chip-level) analog-to-digital converter."""
    usages = [CellUsage(ADCCell(bits=bits,
                                energy_per_conversion=energy_per_conversion))]
    return AnalogComponent(name, SignalDomain.VOLTAGE, SignalDomain.DIGITAL,
                           usages)


def AnalogMAC(name: str = "AnalogMAC",
              kernel_volume: int = 9,
              unit_capacitance: float = 10 * units.fF,
              voltage_swing: float = 1.0 * units.V,
              vdda: float = DEFAULT_VDDA,
              include_opamp: bool = True,
              opamp_gain: float = 2.0,
              input_domain: SignalDomain = SignalDomain.VOLTAGE,
              output_domain: SignalDomain = SignalDomain.VOLTAGE
              ) -> AnalogComponent:
    """Switched-capacitor multiply-accumulate over a stencil window.

    One access computes one ``kernel_volume``-tap dot product via charge
    redistribution [42]: a capacitor array samples the inputs and an OpAmp
    (optional for fully-passive designs) merges the charge.
    """
    if kernel_volume < 1:
        raise ConfigurationError(
            f"analog MAC {name!r}: kernel volume must be >= 1, "
            f"got {kernel_volume}")
    usages = [CellUsage(CapacitorArray(num_capacitors=kernel_volume,
                                       unit_capacitance=unit_capacitance,
                                       voltage_swing=voltage_swing))]
    if include_opamp:
        load = unit_capacitance * kernel_volume
        usages.append(CellUsage(OpAmp(load_capacitance=load, gain=opamp_gain,
                                      vdda=vdda)))
    return AnalogComponent(name, input_domain, output_domain, usages,
                           num_input=(kernel_volume, 1))


def CurrentDomainMAC(name: str = "CurrentMAC", kernel_volume: int = 9,
                     load_capacitance: float = 20 * units.fF,
                     voltage_swing: float = 0.5 * units.V,
                     vdda: float = DEFAULT_VDDA,
                     input_domain: SignalDomain = SignalDomain.CURRENT
                     ) -> AnalogComponent:
    """Current-domain MAC built from mirrored branches.

    ``input_domain`` defaults to current (PWM-gated branches); designs that
    drive the branch transistors' gates from a pixel voltage (Senputing
    style) pass ``SignalDomain.VOLTAGE`` — the V→I conversion is the branch
    transistor itself.
    """
    if kernel_volume < 1:
        raise ConfigurationError(
            f"current MAC {name!r}: kernel volume must be >= 1, "
            f"got {kernel_volume}")
    usages = [CellUsage(CurrentMirrorCell(load_capacitance=load_capacitance,
                                          voltage_swing=voltage_swing,
                                          vdda=vdda),
                        spatial=kernel_volume)]
    return AnalogComponent(name, input_domain, SignalDomain.CURRENT,
                           usages, num_input=(kernel_volume, 1))


def AnalogAdder(name: str = "AnalogAdd",
                capacitance: float = 20 * units.fF,
                voltage_swing: float = 1.0 * units.V) -> AnalogComponent:
    """Passive charge-sharing two-input adder."""
    cell = DynamicCell("ShareCaps", [(capacitance, voltage_swing)] * 2)
    return AnalogComponent(name, SignalDomain.VOLTAGE, SignalDomain.VOLTAGE,
                           [CellUsage(cell)], num_input=(2, 1))


def AnalogMax(name: str = "AnalogMax", num_inputs: int = 4,
              load_capacitance: float = 30 * units.fF,
              voltage_swing: float = 0.7 * units.V,
              vdda: float = DEFAULT_VDDA) -> AnalogComponent:
    """Winner-take-all maximum over ``num_inputs`` (max-pooling in analog)."""
    if num_inputs < 2:
        raise ConfigurationError(
            f"analog max {name!r}: needs >= 2 inputs, got {num_inputs}")
    cell = StaticCell.direct_drive("WTA", load_capacitance, voltage_swing,
                                   vdda=vdda)
    return AnalogComponent(name, SignalDomain.VOLTAGE, SignalDomain.VOLTAGE,
                           [CellUsage(cell, spatial=num_inputs)],
                           num_input=(num_inputs, 1))


def AnalogScaling(name: str = "AnalogScale",
                  capacitance: float = 20 * units.fF,
                  voltage_swing: float = 1.0 * units.V) -> AnalogComponent:
    """Capacitor-ratio scaling (fixed-coefficient multiply)."""
    cell = DynamicCell("RatioCaps", [(capacitance, voltage_swing)] * 2)
    return AnalogComponent(name, SignalDomain.VOLTAGE, SignalDomain.VOLTAGE,
                           [CellUsage(cell)])


def AnalogLog(name: str = "AnalogLog",
              load_capacitance: float = 10 * units.fF,
              voltage_swing: float = 0.3 * units.V,
              vdda: float = DEFAULT_VDDA) -> AnalogComponent:
    """Logarithmic compression via a subthreshold-biased transistor."""
    cell = StaticCell.direct_drive("SubVtLog", load_capacitance,
                                   voltage_swing, vdda=vdda)
    return AnalogComponent(name, SignalDomain.VOLTAGE, SignalDomain.VOLTAGE,
                           [CellUsage(cell)])


def AnalogAbs(name: str = "AnalogAbs",
              load_capacitance: float = 50 * units.fF,
              gain: float = 2.0, vdda: float = DEFAULT_VDDA
              ) -> AnalogComponent:
    """Absolute-value circuit (rectifying amplifier)."""
    cell = OpAmp("AbsAmp", load_capacitance=load_capacitance, gain=gain,
                 vdda=vdda)
    return AnalogComponent(name, SignalDomain.VOLTAGE, SignalDomain.VOLTAGE,
                           [CellUsage(cell)])


def AnalogComparator(name: str = "Comparator",
                     energy_per_conversion: Optional[float] = None
                     ) -> AnalogComponent:
    """Standalone comparator: a 1-bit quantizer (voltage -> digital)."""
    usages = [CellUsage(ComparatorCell(
        energy_per_conversion=energy_per_conversion))]
    return AnalogComponent(name, SignalDomain.VOLTAGE, SignalDomain.DIGITAL,
                           usages)


def PassiveAnalogMemory(name: str = "PassiveMem",
                        bits: int = 8,
                        voltage_swing: float = 1.0 * units.V,
                        capacitance: Optional[float] = None
                        ) -> AnalogComponent:
    """Passive sampling-capacitor memory cell.

    The capacitor is sized from the kT/C limit of the stored resolution
    (Eq. 6) unless an explicit ``capacitance`` is given.
    """
    if capacitance is None:
        cell = DynamicCell.for_resolution("SampleCap", voltage_swing, bits)
    else:
        cell = DynamicCell("SampleCap", [(capacitance, voltage_swing)])
    return AnalogComponent(name, SignalDomain.VOLTAGE, SignalDomain.VOLTAGE,
                           [CellUsage(cell)])


def ActiveAnalogMemory(name: str = "ActiveMem",
                       bits: int = 8,
                       voltage_swing: float = 1.0 * units.V,
                       capacitance: Optional[float] = None,
                       hold_time: Optional[float] = None,
                       opamp_gain: float = 1.0,
                       vdda: float = DEFAULT_VDDA) -> AnalogComponent:
    """Actively-buffered analog memory (e.g. an analog frame buffer).

    The buffer OpAmp stays biased for ``hold_time`` (typically the frame
    time) rather than only during its settling slot — the case Eq. 7 exists
    for.
    """
    if capacitance is None:
        store = DynamicCell.for_resolution("HoldCap", voltage_swing, bits)
    else:
        store = DynamicCell("HoldCap", [(capacitance, voltage_swing)])
    buffer_amp = OpAmp("HoldAmp", load_capacitance=store.total_capacitance,
                       gain=opamp_gain, vdda=vdda)
    usages = [
        CellUsage(store),
        CellUsage(buffer_amp, static_time=hold_time),
    ]
    return AnalogComponent(name, SignalDomain.VOLTAGE, SignalDomain.VOLTAGE,
                           usages)


def SampleAndHold(name: str = "S&H",
                  capacitance: float = 50 * units.fF,
                  voltage_swing: float = 1.0 * units.V,
                  load_capacitance: float = 200 * units.fF,
                  vdda: float = DEFAULT_VDDA) -> AnalogComponent:
    """Sample-and-hold: sampling switch-cap plus an output buffer."""
    usages = [
        CellUsage(DynamicCell("SampleCap", [(capacitance, voltage_swing)])),
        CellUsage(SourceFollower("HoldBuffer",
                                 load_capacitance=load_capacitance,
                                 voltage_swing=voltage_swing, vdda=vdda)),
    ]
    return AnalogComponent(name, SignalDomain.VOLTAGE, SignalDomain.VOLTAGE,
                           usages)


def SwitchedCapSubtractor(name: str = "SCSub",
                          capacitance: float = 100 * units.fF,
                          voltage_swing: float = 1.0 * units.V,
                          opamp_gain: float = 2.0,
                          vdda: float = DEFAULT_VDDA) -> AnalogComponent:
    """Switched-capacitor subtractor/multiplier (the Fig. 10 analog PE)."""
    usages = [
        CellUsage(DynamicCell("SubCaps",
                              [(capacitance, voltage_swing)] * 2)),
        CellUsage(OpAmp("SubAmp", load_capacitance=capacitance,
                        gain=opamp_gain, vdda=vdda)),
    ]
    return AnalogComponent(name, SignalDomain.VOLTAGE, SignalDomain.VOLTAGE,
                           usages, num_input=(2, 1))
