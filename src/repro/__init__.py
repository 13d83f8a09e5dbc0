"""CamJ reproduction: energy modeling for in-sensor visual computing.

The public API mirrors the paper's three-part programming interface
(Fig. 5): describe the algorithm as stages, the hardware as a
:class:`SensorSystem` of analog arrays plus digital units, and map one
onto the other.  Those three parts bundle into a first-class
:class:`Design` — a frozen, hashable value that serializes to JSON —
which a :class:`Simulator` session turns into structured
:class:`SimResult` outcomes, one design at a time or in batches::

    >>> from repro import Design, SimOptions, Simulator
    >>> design = Design(camj_sw_config(), camj_hw_config(), camj_mapping())
    >>> result = Simulator(SimOptions(frame_rate=30)).run(design)
    >>> result.report.total_energy          # doctest: +SKIP

Designs round-trip through ``Design.to_dict()`` / ``Design.from_dict()``
(and spec files runnable via ``python -m repro run spec.json``), and
``Simulator.run_many`` runs a batch with content-hash result caching:
on the calling thread while its jobs take less than the interpreter's
switch interval, across worker threads once they take longer.  The classic functional entry point
:func:`simulate` remains as a thin wrapper over the same engine.

Every name below resolves on first access (see :mod:`repro._lazy`), so
``import repro`` itself loads none of the modules behind them.
"""

from repro import _lazy

__version__ = "1.0.0"

_lazy.install(globals(), {
    "repro": ("units",),
    "repro.exceptions": (
        "CamJError", "CheckError", "ConfigurationError", "DAGError",
        "DomainMismatchError", "MappingError", "SimulationError",
        "StallError", "TimingError"),
    # software description
    "repro.sw": (
        "Stage", "PixelInput", "ProcessStage", "DNNProcessStage",
        "Conv2DStage", "DepthwiseConv2DStage", "FullyConnectedStage",
        "StageGraph"),
    # analog hardware
    "repro.hw.analog": (
        "SignalDomain", "AnalogArray", "AnalogComponent", "CellUsage",
        "ActivePixelSensor", "DigitalPixelSensor", "PWMPixel", "ColumnADC",
        "AnalogMAC", "CurrentDomainMAC", "AnalogAdder", "AnalogMax",
        "AnalogScaling", "AnalogLog", "AnalogAbs", "AnalogComparator",
        "PassiveAnalogMemory", "ActiveAnalogMemory", "SampleAndHold",
        "SwitchedCapSubtractor"),
    # digital hardware
    "repro.hw.digital": (
        "ComputeUnit", "SystolicArray", "FIFO", "LineBuffer",
        "DoubleBuffer"),
    # system assembly
    "repro.hw.chip": ("SensorSystem",),
    "repro.hw.layer": ("Layer", "SENSOR_LAYER", "COMPUTE_LAYER", "OFF_CHIP"),
    "repro.hw.interface": ("Interface", "MIPI_CSI2", "MicroTSV"),
    # memory substrate
    "repro.memlib": ("SRAMModel", "STTRAMModel", "DRAMModel"),
    # simulation and reporting
    "repro.sim": ("Mapping", "simulate"),
    "repro.energy": ("EnergyReport", "EnergyEntry", "Category"),
    "repro.area": ("estimate_area", "power_density"),
    # session API
    "repro.api": (
        "Design", "SimOptions", "SimResult", "Simulator", "run_design",
        "build_usecase", "register_usecase", "design_from_spec",
        "load_scenario"),
    # design-space exploration: the result and metric values only (see
    # repro.explore for the full surface)
    "repro.explore": (
        "ExplorationPoint", "ExplorationResult", "Metric",
        "register_metric", "available_metrics"),
}, submodules=("columns", "exec", "resilience", "tech"))
