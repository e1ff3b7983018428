"""Parametric external-memory bus timing.

One schedule per access pattern:

* streaming -- long sequential bursts (s2/s3).  A fraction ``stream_efficiency``
  (eta) of the peak beat rate is achieved; the resulting stall cycles are
  spread evenly through the transfer (:func:`stream_schedule`).
* on demand -- single-burst reads issued as the consumer needs them (s1).
  Each burst pays one transfer cycle plus ``burst_overhead_cycles`` of fixed
  latency (precharge, row activation and the like, folded into one knob)
  (:func:`demand_schedule`).

Both knobs are quantised once, when a :class:`BusModel` is built: eta to
1/``ETA_RESOLUTION`` and the overhead to 1/``OVERHEAD_RESOLUTION`` (the
calibration grid steps).  The schedules work in exact integer arithmetic at
those resolutions, fractional overheads are realized deterministically as
differences of floors, and :meth:`BusModel.describe` reports the values that
were simulated.  Ideal mode pins eta = 1 and overhead = 0, which makes the
stream schedule the identity and an on-demand access cost exactly one cycle.
A bus refuses a clock that is not positive and finite (in Hz), and an
overhead outside [0, ``MAX_BURST_OVERHEAD``], so that no stall sum can wrap.

Throughput and I/O efficiency are always derived from simulated cycle
counts, never stored independently:

    throughput      = table bits / (total_cycles / clock)
    I/O efficiency  = throughput / theoretical bandwidth
                    = table bits / (total_cycles * bus width)
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, replace

import numpy as np


class BusError(ValueError):
    """Raised for invalid bus configurations or request patterns."""


# Knob resolutions, shared by BusModel, stream_schedule and StallSequence.
ETA_RESOLUTION = 1000
OVERHEAD_RESOLUTION = 100
# Largest burst overhead in cycles; the int64 stall sums of a MAX_DEPTH
# table cannot wrap below 8e10.
MAX_BURST_OVERHEAD = 1e6


def _quantise(value: float, resolution: int) -> float:
    return round(value * resolution) / resolution


@dataclass(frozen=True)
class BusModel:
    bus_width_b: int = 256
    clock_mhz: float = 100.0
    mode: str = "ideal"  # "ideal" | "calibrated"
    stream_efficiency: float = 1.0
    burst_overhead_cycles: float = 0.0

    def __post_init__(self) -> None:
        if self.bus_width_b <= 0:
            raise BusError("bus width must be positive")
        # finite in Hz, as the throughput uses it; NaN fails any comparison
        if not 0 < self.clock_mhz <= sys.float_info.max / 1e6:
            raise BusError("clock must be positive and finite")
        if self.mode not in ("ideal", "calibrated"):
            raise BusError(f"unknown bus mode {self.mode!r}")
        if not 0.0 < self.stream_efficiency <= 1.0:
            raise BusError("stream_efficiency must lie in (0, 1]")
        if not 0 <= self.burst_overhead_cycles <= MAX_BURST_OVERHEAD:
            raise BusError(f"burst_overhead_cycles must lie in "
                           f"[0, {MAX_BURST_OVERHEAD:g}]")
        if self.mode == "ideal" and (self.stream_efficiency != 1.0
                                     or self.burst_overhead_cycles != 0.0):
            raise BusError("ideal mode implies eta = 1 and zero burst overhead")
        eta = _quantise(self.stream_efficiency, ETA_RESOLUTION)
        if eta == 0.0:
            raise BusError(
                f"stream_efficiency {self.stream_efficiency} rounds to 0 at "
                f"the 1/{ETA_RESOLUTION} resolution")
        object.__setattr__(self, "stream_efficiency", eta)
        object.__setattr__(self, "burst_overhead_cycles", _quantise(
            self.burst_overhead_cycles, OVERHEAD_RESOLUTION))

    def describe(self) -> dict:
        return {
            "mode": self.mode,
            "bus_width_b": self.bus_width_b,
            "clock_mhz": self.clock_mhz,
            "stream_efficiency": self.stream_efficiency,
            "burst_overhead_cycles": self.burst_overhead_cycles,
        }


IDEAL_BUS = BusModel()


def calibrated_bus(stream_efficiency: float, burst_overhead_cycles: float,
                   bus_width_b: int = 256, clock_mhz: float = 100.0) -> BusModel:
    return BusModel(bus_width_b=bus_width_b, clock_mhz=clock_mhz,
                    mode="calibrated", stream_efficiency=stream_efficiency,
                    burst_overhead_cycles=burst_overhead_cycles)


def ideal_bus(bus_width_b: int = 256, clock_mhz: float = 100.0) -> BusModel:
    return replace(IDEAL_BUS, bus_width_b=bus_width_b, clock_mhz=clock_mhz)


class StallSequence:
    """Deterministic integer realization of a fractional per-burst stall.

    The mean is interpreted at ``OVERHEAD_RESOLUTION``.  Stall i is
    floor((i+1) * mean) - floor(i * mean), in exact integer arithmetic, so
    the realized sum over n bursts is floor(n * mean) regardless of n.
    """

    def __init__(self, mean_cycles: float):
        if mean_cycles < 0:
            raise BusError("stall mean must be >= 0")
        self._num = round(mean_cycles * OVERHEAD_RESOLUTION)

    def take(self, count: int) -> np.ndarray:
        floors = (np.arange(count + 1, dtype=np.int64) * self._num
                  // OVERHEAD_RESOLUTION)
        return np.diff(floors)


def stream_schedule(bus: BusModel, beat_count: int) -> np.ndarray:
    """Availability cycle of each beat of a sequential burst.

    Beat b becomes available at ceil((b+1)/eta) - 1, the first cycle by
    whose end b+1 beats' worth of transfer credit has accrued; the transfer
    spans ceil(beat_count/eta) cycles with the stalls distributed evenly.
    The schedule is computed in exact integer arithmetic at
    ``ETA_RESOLUTION``.  Ideal mode yields cycles 0..beat_count-1.
    """
    if beat_count <= 0:
        raise BusError("beat_count must be positive")
    num = round(bus.stream_efficiency * ETA_RESOLUTION)
    credits = np.arange(1, beat_count + 1, dtype=np.int64) * ETA_RESOLUTION
    return -(-credits // num) - 1  # ceil division


def demand_schedule(bus: BusModel, beat_count: int, consume_cycles: int,
                    prefetch: bool = False) -> np.ndarray:
    """First consumption cycle of each beat fetched on demand.

    The consumer spends ``consume_cycles`` on every beat.  Without prefetch
    the next burst is requested one cycle before the current beat is used
    up, so it lands just as the consumer needs it plus that burst's stall:
    an ideal bus wastes no cycle.  With ``prefetch`` the request goes out
    when consumption of the current beat starts, hiding the burst latency
    behind the consumption.  Stalls are the deterministic realization of
    the burst overhead (:class:`StallSequence`).
    """
    if beat_count <= 0:
        raise BusError("beat_count must be positive")
    if consume_cycles < 1:
        raise BusError("consume_cycles must be >= 1")
    stalls = StallSequence(bus.burst_overhead_cycles).take(beat_count)
    if prefetch:
        steps = np.maximum(consume_cycles, 1 + stalls[1:])
    else:
        steps = consume_cycles + stalls[1:]
    starts = np.empty(beat_count, dtype=np.int64)
    starts[0] = stalls[0]
    starts[1:] = stalls[0] + np.cumsum(steps)
    return starts


def update_throughput_gbps(table_bits: int, total_cycles: int, bus: BusModel) -> float:
    if total_cycles <= 0:
        raise BusError("total_cycles must be positive")
    seconds = total_cycles / (bus.clock_mhz * 1e6)
    return table_bits / seconds / 1e9


def update_io_efficiency(table_bits: int, total_cycles: int, bus: BusModel) -> float:
    if total_cycles <= 0:
        raise BusError("total_cycles must be positive")
    return table_bits / (total_cycles * bus.bus_width_b)
