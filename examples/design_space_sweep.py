"""Iterative design refinement: the Fig. 4 feedback loop in action.

Builds a custom always-on classifier sensor, then demonstrates the
feedback CamJ gives a designer, now phrased as design-space exploration:

1. an ``options.frame_rate`` axis showing where the digital pipeline
   stops fitting the frame budget (typed TimingError points, not
   exceptions);
2. a stall diagnosis when a line buffer is sized below the kernel window;
3. a two-axis product space (process node x PE clock) with a filtered
   subspace, explored against energy and latency with Pareto frontier
   extraction and bottleneck annotation;
4. a one-axis exploration over a *non-numeric* parameter (the
   line-buffer technology flavor).

Run:  python examples/design_space_sweep.py
"""

from repro import (
    ActivePixelSensor,
    AnalogArray,
    ColumnADC,
    Conv2DStage,
    ComputeUnit,
    Design,
    Layer,
    LineBuffer,
    PixelInput,
    SENSOR_LAYER,
    SensorSystem,
    Simulator,
    units,
)
from repro.explore import choice, explore, linspace, product
from repro.tech import mac_energy


def build(node_nm=65, line_rows=3, clock_hz=50 * units.MHz,
          buffer_energy_pj=0.4):
    source = PixelInput((128, 128, 1), name="Input")
    conv = Conv2DStage("Classifier", input_size=(128, 128, 1),
                       num_kernels=8, kernel_size=(3, 3),
                       stride=(2, 2, 1))
    conv.set_input_stage(source)

    system = SensorSystem("AlwaysOnClassifier",
                          layers=[Layer(SENSOR_LAYER, node_nm)])
    pixels = AnalogArray("Pixels")
    pixels.add_component(ActivePixelSensor(), (128, 128))
    adcs = AnalogArray("ADCs")
    adcs.add_component(ColumnADC(bits=8), (1, 128))
    pixels.set_output(adcs)
    line_buffer = LineBuffer("Lines", size=(line_rows, 128),
                             write_energy_per_word=buffer_energy_pj
                             * units.pJ,
                             read_energy_per_word=buffer_energy_pj
                             * units.pJ)
    adcs.set_output(line_buffer)
    pe = ComputeUnit("ConvPE",
                     input_pixels_per_cycle=(3, 1),
                     output_pixels_per_cycle=(1, 1),
                     energy_per_cycle=9 * mac_energy(node_nm),
                     num_stages=3,
                     clock_hz=clock_hz)
    pe.set_input(line_buffer)
    pe.set_sink()
    system.add_analog_array(pixels)
    system.add_analog_array(adcs)
    system.add_memory(line_buffer)
    system.add_compute_unit(pe)
    system.set_pixel_array_geometry(128, 128)
    mapping = {"Input": "Pixels", "Classifier": "ConvPE"}
    return Design([source, conv], system, mapping)


#: Technology flavors for the non-numeric sweep: per-word access energy.
BUFFER_FLAVORS = {"hp-sram": 0.6, "lp-sram": 0.4, "near-vt": 0.25}


def main():
    print("=== 1. frame-rate axis: where does the design stop fitting? ===")
    fps = explore(choice("options.frame_rate",
                         [30, 120, 480, 2000, 10000, 50000]),
                  lambda **_: build(),
                  objectives=("energy_per_frame", "power"),
                  annotate=False)
    for point in fps.points:
        rate = point.params["options.frame_rate"]
        if point.feasible:
            print(f"  {rate:6g} FPS: "
                  f"{units.format_energy(point.metrics['energy_per_frame'])}"
                  f"/frame, {units.format_power(point.metrics['power'])}")
        else:
            print(f"  {rate:6g} FPS: REJECTED — {point.failure}")

    print("\n=== 2. stall feedback: a 2-row buffer under a 3x3 kernel ===")
    result = Simulator().run(build(line_rows=2))
    print(f"  {result.error_type}: {result.failure}")

    print("\n=== 3. node x clock product space, filtered, 2 objectives ===")
    space = product(choice("node_nm", [130, 90, 65, 28]),
                    linspace("clock_mhz", 25.0, 100.0, 4))
    # A filtered subspace: old nodes cannot close timing at high clocks.
    space = space.filter(
        lambda p: not (p["node_nm"] >= 90 and p["clock_mhz"] > 75))
    grid = explore(space,
                   lambda node_nm, clock_mhz: build(
                       node_nm=node_nm,
                       clock_hz=clock_mhz * units.MHz),
                   objectives=("energy_per_frame", "latency"))
    print(f"  {len(grid.points)} points after filtering, "
          f"{len(grid.frontier())} on the frontier:")
    for point in grid.frontier():
        print(f"    {point.label():<34} "
              f"{units.format_energy(point.metrics['energy_per_frame'])}"
              f"/frame  latency "
              f"{units.format_time(point.metrics['latency'])}"
              + (f"  [{point.bottleneck.name}]" if point.bottleneck
                 else ""))

    print("\n=== 4. non-numeric sweep: line-buffer technology flavor ===")
    flavors = explore(
        choice("flavor", list(BUFFER_FLAVORS)),
        lambda flavor: build(buffer_energy_pj=BUFFER_FLAVORS[flavor]),
        objectives=("energy_per_frame",), annotate=False)
    for point in flavors.points:
        print(f"  {point.params['flavor']:>8}: "
              f"{units.format_energy(point.metrics['energy_per_frame'])}"
              f"/frame")


if __name__ == "__main__":
    main()
