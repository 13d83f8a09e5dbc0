"""Closing the loop the paper leaves open: energy -> heat -> image quality.

Sec. 6.2 ends with "higher power density increases the thermal-induced
noise and worsens the imaging and computing quality... an exploration that
CamJ enables and that we leave to future work."  This example runs it:
each Ed-Gaze architecture's power density heats the die, dark current
doubles every ~7 K, and low-light SNR drops accordingly.

Run:  python examples/thermal_exploration.py
"""

from repro.noise import (
    FunctionalPixel,
    imaging_snr_at_operating_point,
    thermal_operating_point,
)
from repro.usecases import UseCaseConfig, run_edgaze, run_edgaze_mixed
from repro.usecases.edgaze import build_edgaze
from repro.usecases.edgaze_mixed import build_edgaze_mixed


def main():
    pixel = FunctionalPixel(dark_current_e_per_s=2000.0,
                            read_noise_electrons=2.0)

    print("Ed-Gaze architectures at 65 nm: power density -> die "
          "temperature -> low-light SNR\n")
    print(f"{'architecture':<16} {'operating point':<42} "
          f"{'SNR @100e-':>11}")
    rows = []
    for placement in ("2D-Off", "3D-In", "2D-In"):
        config = UseCaseConfig(placement, 65)
        system = build_edgaze(config).system
        report = run_edgaze(config)
        rows.append((placement, system, report))
    mixed_system = build_edgaze_mixed(65).system
    rows.append(("2D-In-Mixed", mixed_system, run_edgaze_mixed(65)))

    for label, system, report in rows:
        point = thermal_operating_point(system, report)
        snr = imaging_snr_at_operating_point(system, report, pixel,
                                             seed=7)
        print(f"{label:<16} {point.describe():<42} {snr:>9.1f} dB")

    print("\nThe dense 2D-In design pays twice: more energy AND a hotter,"
          "\nnoisier image — the co-optimization argument of Sec. 6.2.")


if __name__ == "__main__":
    main()
