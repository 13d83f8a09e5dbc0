"""Structural (de)serialization of the three-part design description.

Every object a :class:`repro.api.Design` bundles — stages, cells,
components, arrays, digital units, memories, interfaces, the sensor
system, the mapping — round-trips through plain JSON-compatible dicts.
The encoding is *structural*: it captures the constructed objects, not
the Python code that built them, so a design assembled by any builder
(or loaded from a spec file) is equal to its round-tripped twin.

The payload layout is versioned through the top-level ``schema`` string
(currently ``"repro.design/1"``); decoders reject unknown schemas rather
than guessing.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence

from repro.exceptions import SerializationError
from repro.hw.analog.array import AnalogArray
from repro.hw.analog.cells import (
    AnalogCell,
    DynamicCell,
    NonLinearCell,
    StaticCell,
)
from repro.hw.analog.components import AnalogComponent, CellUsage
from repro.hw.analog.domain import SignalDomain
from repro.hw.analog.extended import _SingleSlopeCell
from repro.hw.chip import SensorSystem
from repro.hw.digital.compute import ComputeUnit, SystolicArray
from repro.hw.digital.memory import (
    DigitalMemory,
    DoubleBuffer,
    FIFO,
    LineBuffer,
)
from repro.hw.interface import Interface
from repro.hw.layer import Layer, OFF_CHIP
from repro.sim.mapping import Mapping
from repro.sw.dag import StageGraph
from repro.sw.stage import (
    Conv2DStage,
    DepthwiseConv2DStage,
    DNNProcessStage,
    FullyConnectedStage,
    PixelInput,
    ProcessStage,
    Stage,
)

#: Version tag of the design payload layout.
DESIGN_SCHEMA = "repro.design/1"


# --- stages ------------------------------------------------------------------


def encode_stage(stage: Stage) -> Dict[str, Any]:
    """One stage to a dict; producers are referenced by name."""
    payload: Dict[str, Any]
    if type(stage) is PixelInput:
        payload = {
            "type": "PixelInput",
            "name": stage.name,
            "size": list(stage.output_size),
            "bits_per_pixel": stage.bits_per_pixel,
        }
    elif type(stage) in (ProcessStage, DNNProcessStage):
        payload = {
            "type": type(stage).__name__,
            "name": stage.name,
            "input_size": list(stage.input_size),
            "kernel": list(stage.kernel),
            "stride": list(stage.stride),
            "padding": stage.padding,
            "ops_per_output": stage._ops_per_output,
            "bits_per_pixel": stage.bits_per_pixel,
            "output_compression": stage.output_compression,
        }
    elif type(stage) is Conv2DStage:
        payload = {
            "type": "Conv2DStage",
            "name": stage.name,
            "input_size": list(stage.input_size),
            "num_kernels": stage.num_kernels,
            "kernel_size": list(stage.kernel[:2]),
            "stride": list(stage.stride),
            "padding": stage.padding,
            "bits_per_pixel": stage.bits_per_pixel,
        }
    elif type(stage) is DepthwiseConv2DStage:
        payload = {
            "type": "DepthwiseConv2DStage",
            "name": stage.name,
            "input_size": list(stage.input_size),
            "kernel_size": list(stage.kernel[:2]),
            "stride": list(stage.stride),
            "padding": stage.padding,
            "bits_per_pixel": stage.bits_per_pixel,
        }
    elif type(stage) is FullyConnectedStage:
        payload = {
            "type": "FullyConnectedStage",
            "name": stage.name,
            "in_features": stage.in_features,
            "out_features": stage.out_features,
            "bits_per_pixel": stage.bits_per_pixel,
        }
    else:
        raise SerializationError(
            f"stage {stage.name!r} has unsupported type "
            f"{type(stage).__name__}; supported: PixelInput, ProcessStage, "
            f"DNNProcessStage, Conv2DStage, DepthwiseConv2DStage, "
            f"FullyConnectedStage")
    payload["inputs"] = [producer.name for producer in stage.input_stages]
    return payload


def decode_stage(payload: Dict[str, Any]) -> Stage:
    """One stage from its dict form (producers wired separately)."""
    kind = payload.get("type")
    if kind == "PixelInput":
        return PixelInput(payload["size"], name=payload["name"],
                          bits_per_pixel=payload.get("bits_per_pixel", 8))
    if kind in ("ProcessStage", "DNNProcessStage"):
        cls = ProcessStage if kind == "ProcessStage" else DNNProcessStage
        return cls(payload["name"], input_size=payload["input_size"],
                   kernel=payload["kernel"], stride=payload["stride"],
                   ops_per_output=payload.get("ops_per_output"),
                   bits_per_pixel=payload.get("bits_per_pixel", 8),
                   output_compression=payload.get("output_compression", 1.0),
                   padding=payload.get("padding", "valid"))
    if kind == "Conv2DStage":
        return Conv2DStage(payload["name"], input_size=payload["input_size"],
                           num_kernels=payload["num_kernels"],
                           kernel_size=payload["kernel_size"],
                           stride=payload.get("stride", (1, 1, 1)),
                           bits_per_pixel=payload.get("bits_per_pixel", 8),
                           padding=payload.get("padding", "same"))
    if kind == "DepthwiseConv2DStage":
        return DepthwiseConv2DStage(
            payload["name"], input_size=payload["input_size"],
            kernel_size=payload["kernel_size"],
            stride=payload.get("stride", (1, 1, 1)),
            bits_per_pixel=payload.get("bits_per_pixel", 8),
            padding=payload.get("padding", "same"))
    if kind == "FullyConnectedStage":
        return FullyConnectedStage(
            payload["name"], in_features=payload["in_features"],
            out_features=payload["out_features"],
            bits_per_pixel=payload.get("bits_per_pixel", 8))
    raise SerializationError(f"unknown stage type {kind!r}")


def encode_stages(stages: Sequence[Stage]) -> List[Dict[str, Any]]:
    """A stage list to dicts, preserving declaration order."""
    return [encode_stage(stage) for stage in stages]


def decode_stages(payloads: Sequence[Dict[str, Any]]) -> List[Stage]:
    """Rebuild a stage list and its producer wiring."""
    stages = [decode_stage(payload) for payload in payloads]
    by_name = {stage.name: stage for stage in stages}
    if len(by_name) != len(stages):
        raise SerializationError("stage payload contains duplicate names")
    for stage, payload in zip(stages, payloads):
        for producer_name in payload.get("inputs", []):
            if producer_name not in by_name:
                raise SerializationError(
                    f"stage {stage.name!r} consumes unknown stage "
                    f"{producer_name!r}")
            stage.set_input_stage(by_name[producer_name])
    return stages


# --- analog cells, components, arrays ---------------------------------------


def encode_cell(cell: AnalogCell) -> Dict[str, Any]:
    """One A-Cell to a dict."""
    if type(cell) is DynamicCell:
        return {"type": "dynamic", "name": cell.name,
                "nodes": [[c, v] for c, v in cell.nodes]}
    if type(cell) is StaticCell:
        return {"type": "static", "name": cell.name,
                "load_capacitance": cell.load_capacitance,
                "voltage_swing": cell.voltage_swing,
                "vdda": cell.vdda, "mode": cell.mode,
                "gain": cell.gain, "gm_id": cell.gm_id}
    if type(cell) is NonLinearCell:
        return {"type": "nonlinear", "name": cell.name, "bits": cell.bits,
                "energy_per_conversion": cell.energy_per_conversion}
    if type(cell) is _SingleSlopeCell:
        return {"type": "single_slope", "name": cell.name, "bits": cell.bits,
                "comparator_bias": cell.comparator_bias, "vdda": cell.vdda,
                "counter_energy_per_step": cell.counter_energy_per_step}
    raise SerializationError(
        f"cell {cell.name!r} has unsupported type {type(cell).__name__}")


def decode_cell(payload: Dict[str, Any]) -> AnalogCell:
    """One A-Cell from its dict form."""
    kind = payload.get("type")
    if kind == "dynamic":
        return DynamicCell(payload["name"],
                           [tuple(node) for node in payload["nodes"]])
    if kind == "static":
        return StaticCell(payload["name"],
                          load_capacitance=payload["load_capacitance"],
                          voltage_swing=payload["voltage_swing"],
                          vdda=payload["vdda"], mode=payload["mode"],
                          gain=payload["gain"], gm_id=payload["gm_id"])
    if kind == "nonlinear":
        return NonLinearCell(
            payload["name"], bits=payload["bits"],
            energy_per_conversion=payload.get("energy_per_conversion"))
    if kind == "single_slope":
        return _SingleSlopeCell(
            payload["name"], bits=payload["bits"],
            comparator_bias=payload["comparator_bias"], vdda=payload["vdda"],
            counter_energy_per_step=payload["counter_energy_per_step"])
    raise SerializationError(f"unknown cell type {kind!r}")


def encode_component(component: AnalogComponent) -> Dict[str, Any]:
    """One A-Component (with its cell usages) to a dict."""
    if type(component) is not AnalogComponent:
        raise SerializationError(
            f"component {component.name!r} has unsupported type "
            f"{type(component).__name__}")
    return {
        "name": component.name,
        "input_domain": component.input_domain.value,
        "output_domain": component.output_domain.value,
        "num_input": list(component.num_input),
        "num_output": list(component.num_output),
        "cells": [
            {
                "cell": encode_cell(usage.cell),
                "spatial": usage.spatial,
                "temporal": usage.temporal,
                "on_critical_path": usage.on_critical_path,
                "static_time": usage.static_time,
            }
            for usage in component.cell_usages
        ],
    }


def decode_component(payload: Dict[str, Any]) -> AnalogComponent:
    """One A-Component from its dict form."""
    usages = [
        CellUsage(decode_cell(raw["cell"]),
                  spatial=raw.get("spatial", 1),
                  temporal=raw.get("temporal", 1),
                  on_critical_path=raw.get("on_critical_path", True),
                  static_time=raw.get("static_time"))
        for raw in payload["cells"]
    ]
    return AnalogComponent(payload["name"],
                           SignalDomain(payload["input_domain"]),
                           SignalDomain(payload["output_domain"]),
                           usages,
                           num_input=payload.get("num_input", (1, 1)),
                           num_output=payload.get("num_output", (1, 1)))


def encode_analog_array(array: AnalogArray) -> Dict[str, Any]:
    """One AFA to a dict; downstream consumers referenced by name."""
    return {
        "name": array.name,
        "layer": array.layer,
        "num_input": list(array.num_input),
        "num_output": list(array.num_output),
        "category": array._category,
        "components": [
            {"component": encode_component(component), "count": count}
            for component, count in array.components
        ],
        "output_arrays": [consumer.name for consumer in array.output_arrays],
        "output_memories": [memory.name
                            for memory in array.output_memories],
    }


def decode_analog_array(payload: Dict[str, Any]) -> AnalogArray:
    """One AFA from its dict form (wiring resolved by the system decoder)."""
    array = AnalogArray(payload["name"], payload["layer"],
                        num_input=payload["num_input"],
                        num_output=payload["num_output"],
                        category=payload.get("category"))
    for entry in payload["components"]:
        array.add_component(decode_component(entry["component"]),
                            (entry["count"],))
    return array


# --- digital memories and compute units -------------------------------------


def _encode_memory_common(memory: DigitalMemory) -> Dict[str, Any]:
    return {
        "name": memory.name,
        "layer": memory.layer,
        "write_energy_per_word": memory.write_energy_per_word,
        "read_energy_per_word": memory.read_energy_per_word,
        "pixels_per_write_word": memory.pixels_per_write_word,
        "pixels_per_read_word": memory.pixels_per_read_word,
        "leakage_power": memory.leakage_power,
        "duty_alpha": memory.duty_alpha,
        "num_read_ports": memory.num_read_ports,
        "num_write_ports": memory.num_write_ports,
        "area": memory.area,
    }


def encode_memory(memory: DigitalMemory) -> Dict[str, Any]:
    """One digital memory structure to a dict."""
    payload = _encode_memory_common(memory)
    if type(memory) is FIFO:
        payload["type"] = "FIFO"
        payload["size"] = list(memory.size)
    elif type(memory) is LineBuffer:
        payload["type"] = "LineBuffer"
        payload["size"] = list(memory.size)
    elif type(memory) is DoubleBuffer:
        payload["type"] = "DoubleBuffer"
        payload["size"] = list(memory.size)
        payload["capacity_bytes"] = memory.capacity_bytes
    elif type(memory) is DigitalMemory:
        payload["type"] = "DigitalMemory"
        payload["capacity_pixels"] = memory.capacity_pixels
    else:
        raise SerializationError(
            f"memory {memory.name!r} has unsupported type "
            f"{type(memory).__name__}")
    return payload


def decode_memory(payload: Dict[str, Any]) -> DigitalMemory:
    """One digital memory structure from its dict form."""
    kind = payload.get("type")
    common = dict(
        write_energy_per_word=payload["write_energy_per_word"],
        read_energy_per_word=payload["read_energy_per_word"],
        pixels_per_write_word=payload.get("pixels_per_write_word", 1),
        pixels_per_read_word=payload.get("pixels_per_read_word", 1),
        leakage_power=payload.get("leakage_power", 0.0),
        duty_alpha=payload.get("duty_alpha", 1.0),
        num_read_ports=payload.get("num_read_ports", 1),
        num_write_ports=payload.get("num_write_ports", 1),
        area=payload.get("area", 0.0))
    name, layer = payload["name"], payload["layer"]
    if kind == "FIFO":
        return FIFO(name, layer, size=payload["size"], **common)
    if kind == "LineBuffer":
        return LineBuffer(name, layer, size=payload["size"], **common)
    if kind == "DoubleBuffer":
        return DoubleBuffer(name, layer, size=payload["size"],
                            capacity_bytes=payload.get("capacity_bytes"),
                            **common)
    if kind == "DigitalMemory":
        return DigitalMemory(name, layer,
                             capacity_pixels=payload["capacity_pixels"],
                             **common)
    raise SerializationError(f"unknown memory type {kind!r}")


def encode_compute_unit(unit: ComputeUnit) -> Dict[str, Any]:
    """One compute unit to a dict; memories referenced by name."""
    wiring = {
        "inputs": [memory.name for memory in unit.input_memories],
        "output": unit.output_memory.name if unit.output_memory else None,
        "is_sink": unit.is_sink,
    }
    if type(unit) is SystolicArray:
        return {
            "type": "SystolicArray",
            "name": unit.name,
            "layer": unit.layer,
            "dimensions": list(unit.dimensions),
            "energy_per_mac": unit.energy_per_mac,
            "utilization": unit.utilization,
            "num_stages": unit.num_stages,
            "clock_hz": unit.clock_hz,
            "area": unit.area,
            **wiring,
        }
    if type(unit) is ComputeUnit:
        return {
            "type": "ComputeUnit",
            "name": unit.name,
            "layer": unit.layer,
            "input_pixels_per_cycle": [list(shape) for shape
                                       in unit.input_pixels_per_cycle],
            "output_pixels_per_cycle": list(unit.output_pixels_per_cycle),
            "energy_per_cycle": unit.energy_per_cycle,
            "num_stages": unit.num_stages,
            "clock_hz": unit.clock_hz,
            "area": unit.area,
            **wiring,
        }
    raise SerializationError(
        f"compute unit {unit.name!r} has unsupported type "
        f"{type(unit).__name__}")


def decode_compute_unit(payload: Dict[str, Any]) -> ComputeUnit:
    """One compute unit from its dict form (wiring resolved separately)."""
    kind = payload.get("type")
    if kind == "SystolicArray":
        return SystolicArray(payload["name"], payload["layer"],
                             dimensions=payload["dimensions"],
                             energy_per_mac=payload["energy_per_mac"],
                             utilization=payload.get("utilization", 0.85),
                             num_stages=payload.get("num_stages", 2),
                             clock_hz=payload["clock_hz"],
                             area=payload.get("area", 0.0))
    if kind == "ComputeUnit":
        return ComputeUnit(
            payload["name"], payload["layer"],
            input_pixels_per_cycle=payload["input_pixels_per_cycle"],
            output_pixels_per_cycle=payload["output_pixels_per_cycle"],
            energy_per_cycle=payload["energy_per_cycle"],
            num_stages=payload.get("num_stages", 1),
            clock_hz=payload["clock_hz"],
            area=payload.get("area", 0.0))
    raise SerializationError(f"unknown compute unit type {kind!r}")


# --- the sensor system -------------------------------------------------------


def encode_system(system: SensorSystem) -> Dict[str, Any]:
    """A complete sensor system to a dict."""
    pixel_array = None
    if system.pixel_array_dims is not None:
        rows, cols = system.pixel_array_dims
        pixel_array = {"rows": rows, "cols": cols,
                       "pitch": system.pixel_pitch}
    offchip_host = None
    if OFF_CHIP in system.layers:
        offchip_host = system.layers[OFF_CHIP].node_nm
    return {
        "name": system.name,
        "layers": [{"name": layer.name, "node_nm": layer.node_nm}
                   for layer in system.layers.values()
                   if layer.name != OFF_CHIP],
        "offchip_host": offchip_host,
        "analog_arrays": [encode_analog_array(array)
                          for array in system.analog_arrays],
        "memories": [encode_memory(memory) for memory in system.memories],
        "compute_units": [encode_compute_unit(unit)
                          for unit in system.compute_units],
        "offchip_interface": {
            "name": system.offchip_interface.name,
            "energy_per_byte": system.offchip_interface.energy_per_byte,
        },
        "interlayer_interface": {
            "name": system.interlayer_interface.name,
            "energy_per_byte": system.interlayer_interface.energy_per_byte,
        },
        "pixel_array": pixel_array,
    }


def decode_system(payload: Dict[str, Any]) -> SensorSystem:
    """A complete sensor system from its dict form, wiring included."""
    try:
        layers = [Layer(raw["name"], raw["node_nm"])
                  for raw in payload["layers"]]
        system = SensorSystem(payload["name"], layers=layers)
        if payload.get("offchip_host") is not None:
            system.add_offchip_host(payload["offchip_host"])

        memories = {raw["name"]: decode_memory(raw)
                    for raw in payload.get("memories", [])}
        arrays = {raw["name"]: decode_analog_array(raw)
                  for raw in payload.get("analog_arrays", [])}
        units = {raw["name"]: decode_compute_unit(raw)
                 for raw in payload.get("compute_units", [])}

        # Wiring pass: names resolve only once every unit exists.
        for raw in payload.get("analog_arrays", []):
            array = arrays[raw["name"]]
            for consumer_name in raw.get("output_arrays", []):
                array.set_output(_resolve(arrays, consumer_name, "array"))
            for memory_name in raw.get("output_memories", []):
                array.set_output(_resolve(memories, memory_name, "memory"))
        for raw in payload.get("compute_units", []):
            unit = units[raw["name"]]
            for memory_name in raw.get("inputs", []):
                unit.set_input(_resolve(memories, memory_name, "memory"))
            if raw.get("output") is not None:
                unit.set_output(_resolve(memories, raw["output"], "memory"))
            if raw.get("is_sink"):
                unit.set_sink()

        for raw in payload.get("analog_arrays", []):
            system.add_analog_array(arrays[raw["name"]])
        for raw in payload.get("memories", []):
            system.add_memory(memories[raw["name"]])
        for raw in payload.get("compute_units", []):
            system.add_compute_unit(units[raw["name"]])

        for role, setter in (("offchip_interface",
                              system.set_offchip_interface),
                             ("interlayer_interface",
                              system.set_interlayer_interface)):
            raw = payload.get(role)
            if raw is not None:
                setter(Interface(raw["name"], raw["energy_per_byte"]))
        if payload.get("pixel_array") is not None:
            geometry = payload["pixel_array"]
            system.set_pixel_array_geometry(geometry["rows"],
                                            geometry["cols"],
                                            pitch=geometry["pitch"])
    except KeyError as error:
        raise SerializationError(
            f"malformed system payload: missing key {error}") from error
    return system


def _resolve(pool: Dict[str, Any], name: str, kind: str) -> Any:
    if name not in pool:
        raise SerializationError(f"wiring references unknown {kind} {name!r}")
    return pool[name]


# --- the full design ---------------------------------------------------------


def encode_design(stages: Sequence[Stage], system: SensorSystem,
                  mapping: Mapping, name: Optional[str] = None
                  ) -> Dict[str, Any]:
    """The complete three-part design to a versioned dict payload."""
    return {
        "schema": DESIGN_SCHEMA,
        "name": name if name is not None else system.name,
        "stages": encode_stages(stages),
        "system": encode_system(system),
        "mapping": dict(mapping.assignments),
    }


def decode_design_parts(payload: Dict[str, Any]):
    """``(graph, system, mapping, name)`` from a design payload."""
    schema = payload.get("schema")
    if schema != DESIGN_SCHEMA:
        raise SerializationError(
            f"unsupported design schema {schema!r}; expected "
            f"{DESIGN_SCHEMA!r}")
    try:
        for key, kind in (("stages", list), ("system", dict),
                          ("mapping", dict)):
            if not isinstance(payload[key], kind):
                raise SerializationError(
                    f"malformed design payload: {key!r} must be a JSON "
                    f"{'array' if kind is list else 'object'}")
        stages = decode_stages(payload["stages"])
        system = decode_system(payload["system"])
        mapping = Mapping(payload["mapping"])
        # Validate here (fail fast) and hand the graph on so Design need
        # not rebuild it.
        graph = StageGraph(stages)
    except KeyError as error:
        raise SerializationError(
            f"malformed design payload: missing key {error}") from error
    except (TypeError, ValueError, AttributeError) as error:
        # A nested entry of the wrong JSON type (a memory that is a
        # number, a kernel that is a string, ...).
        raise SerializationError(
            f"malformed design payload: {error}") from error
    name = payload.get("name", system.name)
    if not isinstance(name, str):
        raise SerializationError(
            "malformed design payload: 'name' must be a string")
    return graph, system, mapping, name
