"""Building the Fig. 10 mixed-signal CIS, piece by piece.

Walks through the construction of the analog front-end that replaces
Ed-Gaze's first two digital stages: shared-FD binning pixels, an active
analog frame buffer held for the whole frame, switched-capacitor
subtractors, and delta comparators — then compares against the
fully-digital 2D-In design (Fig. 11) and shows the Fig. 13
memory-down/compute-up effect.

Run:  python examples/mixed_signal_design.py
"""

from repro import units
from repro.analysis import compare_reports, identify_bottlenecks
from repro.energy.report import Category
from repro.usecases import UseCaseConfig, run_edgaze, run_edgaze_mixed
from repro.usecases.edgaze_mixed import build_edgaze_mixed


def main():
    print("=== The Fig. 10 hardware ===")
    design = build_edgaze_mixed(65)
    print(design.system.describe())
    print("\nmapping:")
    for stage, unit in design.mapping.assignments.items():
        print(f"  {stage:16s} -> {unit}")

    print("\n=== Fig. 11: against the fully-digital 2D-In design ===")
    for node in (130, 65):
        digital = run_edgaze(UseCaseConfig("2D-In", node))
        mixed = run_edgaze_mixed(node)
        print(compare_reports(digital, mixed).describe())
        print()

    print("=== Fig. 13: where the saving comes from (65 nm) ===")
    digital = run_edgaze(UseCaseConfig("2D-In", 65))
    mixed = run_edgaze_mixed(65)
    first = ("Input", "Downsample", "FrameSubtract")
    for label, report in (("digital", digital), ("mixed", mixed)):
        compute = sum(e.energy for e in report.entries
                      if e.stage in first
                      and e.category in (Category.COMP_D, Category.COMP_A))
        memory = sum(e.energy for e in report.entries
                     if e.stage in first
                     and e.category in (Category.MEM_D, Category.MEM_A))
        print(f"  {label:8s} first-stage compute "
              f"{compute / units.uJ:7.3f} uJ   memory "
              f"{memory / units.uJ:8.3f} uJ")
    print("  -> memory collapses, compute slightly rises (8-bit OpAmps)")

    print("\n=== Remaining bottlenecks of the mixed design ===")
    for bottleneck in identify_bottlenecks(mixed, top=4):
        print(" ", bottleneck.describe())


if __name__ == "__main__":
    main()
