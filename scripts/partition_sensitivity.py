#!/usr/bin/env python3
"""Sensitivity studies around the two schedule knobs.

Part 1 sweeps the erase-RAM partition count of the overlapped design: more
partitions shorten the erase pass (beats/P cycles) until the bus read
dominates and the total pins at beats+1.

Part 2 compares the traditional engine with and without the one-beat request
prefetch under a calibrated bus, showing that its efficiency gap is burst
overhead, not the two-cycle update itself.
"""

import argparse

from rcam_sim.bus import calibrated_bus, ideal_bus, update_io_efficiency
from rcam_sim.engines import ideal_total_cycles, timing
from rcam_sim.geometry import geometry_for


def partition_sweep(depth: int, width: int) -> None:
    print(f"== partition sweep at {depth}x{width}, ideal bus ==")
    print(f"{'P':>3}  {'erase pass':>10}  {'total':>7}  {'catch-up':>8}")
    p = 1
    while 32 * p * 256 // width <= depth and p <= 64:
        geometry = geometry_for("s3", depth, width, partitions_p=p)
        trace = timing(geometry)
        span = trace.erase_span[1] - trace.erase_span[0] + 1
        print(f"{p:>3}  {span:>10}  {trace.total_cycles:>7}"
              f"  {trace.catch_up_cycles:>8}")
        p *= 2


def prefetch_study(depth: int, width: int, overhead: float) -> None:
    print(f"\n== traditional engine, burst overhead {overhead} cycles ==")
    bus = calibrated_bus(1.0, overhead)
    geometry = geometry_for("s1", depth, width)
    for prefetch in (False, True):
        trace = timing(geometry, bus, prefetch_one_beat=prefetch)
        eff = update_io_efficiency(geometry.table_bits, trace.total_cycles, bus)
        label = "1-beat prefetch" if prefetch else "on-demand      "
        print(f"{label}: {trace.total_cycles} cycles, "
              f"{100 * eff:.2f}% of bus bandwidth "
              f"(stalls {trace.stall_cycles})")
    ideal = ideal_total_cycles(geometry)
    print(f"ideal-bus floor: {ideal} cycles, "
          f"{100 * update_io_efficiency(depth * width, ideal, ideal_bus()):.2f}%")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--depth", type=int, default=65536)
    parser.add_argument("--width", type=int, default=8)
    parser.add_argument("--overhead", type=float, default=1.9)
    args = parser.parse_args()
    partition_sweep(args.depth, args.width)
    prefetch_study(8192, 64, args.overhead)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
