"""Three-layer stacked CIS for slow-motion burst capture (IMX400-style).

Sec. 2.1 of the paper surveys three-layer stacks — pixel / DRAM / logic —
without evaluating one; this example does, sweeping the burst frame rate
and showing where each layer's energy goes.

Run:  python examples/three_layer_burst.py
"""

from repro import units
from repro.area import layer_power_density
from repro.area.model import format_density
from repro.usecases.threelayer import build_three_layer, run_three_layer


def main():
    print("=== The stack ===")
    system = build_three_layer().system
    print(system.describe())

    print("\n=== Burst-rate sweep ===")
    for fps in (120, 240, 480, 960):
        report = run_three_layer(burst_fps=fps)
        per_layer = report.by_layer()
        layers = "  ".join(
            f"{layer}: {units.format_energy(energy)}"
            for layer, energy in per_layer.items())
        print(f"  {fps:4.0f} FPS: "
              f"{units.format_power(report.total_power):>9}  ({layers})")

    print("\n=== Power density per layer at 960 FPS ===")
    report = run_three_layer(burst_fps=960)
    for layer, density in layer_power_density(system, report).items():
        print(f"  {layer:8s} {format_density(density)}")


if __name__ == "__main__":
    main()
