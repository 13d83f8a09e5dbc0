"""Quickstart: the paper's Fig. 5 example through the session API.

A 32x32 pixel array bins every 2x2 tile in the charge domain, digitizes
the 16x16 result through column ADCs, runs a 3x3 digital edge detector fed
by a line buffer, and ships the edge map off-chip over MIPI CSI-2.

The three ``camj_*_config`` functions below mirror Fig. 5's three-part
programming interface.  They bundle into a first-class :class:`Design` —
a frozen, hashable value that serializes to JSON — which a
:class:`Simulator` session turns into structured results, one at a time
or as a parallel batch.

Run:  python examples/quickstart.py
"""

from repro import (
    ActivePixelSensor,
    AnalogArray,
    ColumnADC,
    ComputeUnit,
    Design,
    Layer,
    LineBuffer,
    PixelInput,
    ProcessStage,
    SENSOR_LAYER,
    SensorSystem,
    SimOptions,
    Simulator,
    units,
)


def camj_sw_config():
    """Algorithm description: the DAG of Fig. 5's right column."""
    input_data = PixelInput((32, 32, 1), name="Input")
    bin_stage = ProcessStage("Binning", input_size=(32, 32, 1),
                             kernel=(2, 2, 1), stride=(2, 2, 1))
    edge_stage = ProcessStage("EdgeDetection", input_size=(16, 16, 1),
                              kernel=(3, 3, 1), stride=(1, 1, 1),
                              padding="same")
    bin_stage.set_input_stage(input_data)
    edge_stage.set_input_stage(bin_stage)
    return [input_data, bin_stage, edge_stage]


def camj_hw_config():
    """Hardware description: the architecture drawn at the top of Fig. 5."""
    system = SensorSystem("Fig5-CIS", layers=[Layer(SENSOR_LAYER, 65)])

    pixel_array = AnalogArray("PixelArray", num_input=(1, 32),
                              num_output=(1, 16))
    pixel_array.add_component(
        ActivePixelSensor("BinningPixel", num_shared_pixels=4),  # 4x 4T-APS
        (16, 16))
    adc_array = AnalogArray("ADCArray", num_input=(1, 16),
                            num_output=(1, 16))
    adc_array.add_component(ColumnADC(bits=10), (1, 16))

    line_buffer = LineBuffer("LineBuffer", size=(3, 16),
                             write_energy_per_word=0.3 * units.pJ,
                             read_energy_per_word=0.3 * units.pJ,
                             pixels_per_write_word=1,
                             pixels_per_read_word=1)
    edge_unit = ComputeUnit("EdgeUnit",
                            input_pixels_per_cycle=(1, 3, 1),
                            output_pixels_per_cycle=(1, 1, 1),
                            energy_per_cycle=3.0 * units.pJ,
                            num_stages=2)

    pixel_array.set_output(adc_array)
    adc_array.set_output(line_buffer)
    edge_unit.set_input(line_buffer)
    edge_unit.set_sink()

    system.add_analog_array(pixel_array)
    system.add_analog_array(adc_array)
    system.add_memory(line_buffer)
    system.add_compute_unit(edge_unit)
    system.set_pixel_array_geometry(32, 32)
    return system


def camj_mapping():
    """Mapping description: which stage runs on which hardware unit."""
    return {
        "Input": "PixelArray",
        "Binning": "PixelArray",
        "EdgeDetection": "EdgeUnit",
    }


def main():
    # The three parts become one first-class, serializable scenario.
    design = Design(camj_sw_config(), camj_hw_config(), camj_mapping())
    print(f"design {design.name!r}  content hash {design.content_hash[:16]}…")

    # A simulator session runs designs under frozen options.
    simulator = Simulator(SimOptions(frame_rate=30))
    report = simulator.run(design).unwrap()

    print(report.to_table())
    print()
    print(f"digital latency T_D  = "
          f"{units.format_time(report.digital_latency)}")
    print(f"analog stage delay T_A = "
          f"{units.format_time(report.analog_stage_delay)}")
    print(f"(3 x T_A + T_D = "
          f"{units.format_time(3 * report.analog_stage_delay + report.digital_latency)}"
          f" = the 33.3 ms frame time of Fig. 6)")
    print()
    from repro.sim.chart import pipeline_chart
    print(pipeline_chart(design.stages, design.system, design.mapping,
                         frame_rate=30))
    print()
    print("per-component breakdown:")
    for name, energy in sorted(report.by_component().items()):
        print(f"  {name:35s} {units.format_energy(energy)}")

    # Batches run in parallel with per-design results in input order;
    # structured failures mark infeasible points instead of raising.
    print()
    print("frame-rate batch through Simulator.run_many:")
    batch = simulator.run_many(
        [(design, SimOptions(frame_rate=fps))
         for fps in (15, 30, 60, 120, 1e6)])
    for result in batch:
        fps = result.options.frame_rate
        if result.ok:
            print(f"  {fps:>10g} FPS  "
                  f"{units.format_energy(result.report.total_energy)}/frame")
        else:
            print(f"  {fps:>10g} FPS  infeasible ({result.error_type})")

    # The design round-trips through JSON: store, diff, replay.
    clone = Design.from_json(design.to_json())
    replayed = simulator.run(clone)
    print()
    print(f"JSON round-trip: equal designs = {clone == design}, "
          f"replayed total = "
          f"{units.format_energy(replayed.report.total_energy)} "
          f"(cache hit: {replayed.cached})")


if __name__ == "__main__":
    main()
