#!/usr/bin/env python3
"""End-to-end reproduction of the headline numbers.

Produces, in order:
  1. the memory-resource table for the four standard geometries,
  2. the ideal-bus width sweep (architectural ceilings),
  3. the bus calibration fit with residuals,
  4. the calibrated width sweep and the s3/s1 efficiency ratio.

Writes plot-ready CSVs and the calibration JSON under --out-dir (default
./results) and prints a summary to stdout.
"""

import argparse
import json
from pathlib import Path

from rcam_sim.calibration import calibrate
from rcam_sim.experiment import ExperimentConfig, emit_report, run_sweep
from rcam_sim.geometry import geometry_for
from rcam_sim.resources import m10k_report

GEOMETRIES = [(65536, 8), (32768, 16), (16384, 32), (8192, 64)]


def resource_table() -> None:
    print("== memory blocks (M10K) ==")
    print(f"{'geometry':>12}  {'s1':>6}  {'s2/s3':>6}  {'saving':>7}")
    for depth, width in GEOMETRIES:
        s1 = m10k_report(geometry_for("s1", depth, width))
        s2 = m10k_report(geometry_for("s2", depth, width))
        print(f"{depth:>7}x{width:<4}  {s1.total_m10k:>6}  {s2.total_m10k:>6}"
              f"  {100 * s2.saving_vs_s1:>6.2f}%")
    s1 = m10k_report(geometry_for("s1", 65536, 8))
    print(f"s1 erase-RAM block utilization: "
          f"{100 * s1.erase_ram_utilization:.3f}%")


def efficiency_table(report, title: str) -> None:
    print(f"== I/O efficiency, {title} ==")
    print(f"{'geometry':>12}  {'s1':>8}  {'s2':>8}  {'s3':>8}")
    rows = {}
    for r in report.results:
        rows.setdefault(r.geometry["word_width_w"], {})[r.architecture] = r
    for width in sorted(rows):
        cells = rows[width]
        depth = next(iter(cells.values())).geometry["depth_n"]
        line = f"{depth:>7}x{width:<4}"
        for arch in ("s1", "s2", "s3"):
            eff = cells[arch].io_efficiency() if arch in cells else None
            line += f"  {100 * eff:>7.2f}%" if eff is not None else "        -"
        print(line)
    ratio = report.ratios()["s3_over_s1_at_w64"]
    if ratio is not None:
        print(f"s3 over s1 (s1 at 64-bit words): {ratio:.2f}x")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out-dir", type=Path, default=Path("results"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--keys", type=int, default=256)
    args = parser.parse_args()
    args.out_dir.mkdir(parents=True, exist_ok=True)

    resource_table()
    print()

    ideal = run_sweep(ExperimentConfig(seed=args.seed, key_count=args.keys))
    efficiency_table(ideal, "ideal bus")
    emit_report(ideal, args.out_dir / "sweep_ideal.csv", "csv")
    emit_report(ideal, args.out_dir / "sweep_ideal.json", "json")
    print()

    print("== bus calibration ==")
    fit = calibrate()
    print(f"eta = {fit.stream_efficiency:.3f}, "
          f"burst overhead = {fit.burst_overhead_cycles:.2f} cycles")
    for arch in sorted(fit.targets):
        print(f"  {arch}: simulated {100 * fit.simulated[arch]:6.2f}%  "
              f"target {100 * fit.targets[arch]:6.2f}%  "
              f"residual {100 * fit.residuals[arch]:.3f}% (relative)")
    (args.out_dir / "calibration.json").write_text(
        json.dumps(fit.to_dict(), indent=2) + "\n", encoding="utf-8")
    print()

    calibrated = run_sweep(ExperimentConfig(
        bus_mode="calibrated", stream_efficiency=fit.stream_efficiency,
        burst_overhead_cycles=fit.burst_overhead_cycles, seed=args.seed,
        key_count=args.keys), fit)
    efficiency_table(calibrated, "calibrated bus")
    emit_report(calibrated, args.out_dir / "sweep_calibrated.csv", "csv")
    emit_report(calibrated, args.out_dir / "sweep_calibrated.json", "json")
    print(f"\nartifacts written to {args.out_dir}/")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
