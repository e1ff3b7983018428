"""Fit the two bus-model knobs to measured end-to-end I/O efficiencies.

The measured numbers fold every real-system loss (bank interleaving limits,
precharge, row activation, refresh) into three end-to-end efficiencies, so
reproducing them is a calibration, not a prediction: the cycle schedules
(:func:`rcam_sim.engines.timing`) run once per knob value at the anchor
configurations, and arrays of the relative errors over the whole grid give
the (stream efficiency, burst overhead) pair of least maximum error.
Payload values never change the timing, so the search builds no engine and
writes no table.  Residuals are always reported, never hidden.

The fit runs on the default 256-bit bus (the clock does not enter an
efficiency) over the fixed grids ``ETA_GRID`` and ``OVERHEAD_GRID``; the
targets are its only input.

Anchor configurations: the streaming architectures at 65,536x8 and the
traditional one at 8,192x64 (its efficiency grows with width, so the widest
variant is the published comparison point).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bus import calibrated_bus, update_io_efficiency
from .engines import timing
from .geometry import geometry_for
# The benchmark's tracer (perfbench/tracing.py) wraps this name; the fit
# itself makes no payload.
from .payload import generate_payload  # noqa: F401

S1_ANCHOR = (8192, 64)
STREAM_ANCHOR = (65536, 8)
# (low, high, step) of the search grid of each knob.
ETA_GRID = (0.90, 1.00, 0.001)
OVERHEAD_GRID = (0.0, 4.0, 0.05)

# Defaults obtained by running calibrate() against the built-in targets.
DEFAULT_TARGETS = {"s1": 0.101, "s2": 0.498, "s3": 0.968}
DEFAULT_CALIBRATED_ETA = 0.976
DEFAULT_CALIBRATED_OVERHEAD = 1.90


@dataclass(frozen=True)
class CalibrationResult:
    stream_efficiency: float
    burst_overhead_cycles: float
    simulated: dict[str, float]
    targets: dict[str, float]
    residuals: dict[str, float]  # relative errors
    max_residual: float

    def to_dict(self) -> dict:
        return {
            "stream_efficiency": self.stream_efficiency,
            "burst_overhead_cycles": self.burst_overhead_cycles,
            "simulated": dict(self.simulated),
            "targets": dict(self.targets),
            "residuals": dict(self.residuals),
            "max_residual": self.max_residual,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "CalibrationResult":
        return cls(
            stream_efficiency=data["stream_efficiency"],
            burst_overhead_cycles=data["burst_overhead_cycles"],
            simulated=dict(data["simulated"]), targets=dict(data["targets"]),
            residuals=dict(data["residuals"]),
            max_residual=data["max_residual"])


def _efficiency(geometry, bus) -> float:
    return update_io_efficiency(geometry.table_bits,
                                timing(geometry, bus).total_cycles, bus)


def calibrate(targets: dict[str, float] | None = None) -> CalibrationResult:
    """Grid-search (eta, overhead) against measured efficiencies.

    ``targets`` maps each of s1, s2 and s3 to its efficiency in (0, 1].
    The traditional architecture depends only on the burst overhead and the
    streaming ones only on eta, so each knob value is simulated once, at
    anchor geometries built once, and the grid is evaluated as arrays.
    """
    targets = dict(DEFAULT_TARGETS if targets is None else targets)
    if set(targets) != set(DEFAULT_TARGETS):
        raise ValueError(
            f"targets must name exactly s1, s2 and s3, got {sorted(targets)}")
    for arch, eff in targets.items():
        if not 0.0 < eff <= 1.0:
            raise ValueError(
                f"target for {arch} must lie in (0, 1], got {eff}")
    anchors = {a: geometry_for(a, *(S1_ANCHOR if a == "s1" else STREAM_ANCHOR))
               for a in sorted(targets)}

    def errors(arch, buses) -> np.ndarray:
        g, t = anchors[arch], targets[arch]
        return np.array([abs(_efficiency(g, b) - t) / t for b in buses])

    etas, overheads = _grid(ETA_GRID), _grid(OVERHEAD_GRID)
    s1 = errors("s1", [calibrated_bus(1.0, oh) for oh in overheads])
    stream_buses = [calibrated_bus(eta, 0.0) for eta in etas]
    s2, s3 = errors("s2", stream_buses), errors("s3", stream_buses)
    # Minimize the maximum relative error; ties go to the smaller error sum
    # (the max is often pinned by one architecture, leaving the other knob
    # free otherwise), then to the first (eta, overhead) in grid order.
    worst = np.maximum(np.maximum(s2, s3)[:, None], s1[None, :])
    rows, cols = np.divmod(np.flatnonzero(worst == worst.min()), len(overheads))
    best = ((s2[rows] + s3[rows]) + s1[cols]).argmin()  # summed as s2, s3, s1
    eta, overhead = etas[rows[best]], overheads[cols[best]]

    bus = calibrated_bus(eta, overhead)
    simulated = {arch: _efficiency(g, bus) for arch, g in anchors.items()}
    residuals = {arch: abs(simulated[arch] - targets[arch]) / targets[arch]
                 for arch in simulated}
    return CalibrationResult(
        stream_efficiency=eta, burst_overhead_cycles=overhead,
        simulated=simulated, targets={a: targets[a] for a in sorted(targets)},
        residuals=residuals, max_residual=max(residuals.values()))


def _grid(bounds) -> list[float]:
    lo, hi, step = bounds
    count = int(round((hi - lo) / step))
    return [round(lo + i * step, 10) for i in range(count + 1)]
