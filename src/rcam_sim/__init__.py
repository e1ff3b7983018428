"""Functional and timing simulator for RAM-based binary CAM architectures."""

from ._version import __version__
from .bus import (BusModel, IDEAL_BUS, calibrated_bus, demand_schedule,
                  ideal_bus, stream_schedule, update_io_efficiency,
                  update_throughput_gbps)
from .calibration import CalibrationResult, calibrate
from .engines import RcamEngine, UpdateTrace
from .erase_store import EraseStore
from .experiment import (EfficiencyReport, ExperimentConfig, emit_report,
                         run_experiment, run_sweep)
from .geometry import CamGeometry, GeometryError, geometry_for
from .oracle import EquivalenceResult, ReferenceCam, equivalence_check
from .payload import generate_payload, load_payload, save_payload
from .rcu import RcamArray
from .resources import ResourceReport, m10k_report

__all__ = [
    "__version__",
    "BusModel", "IDEAL_BUS", "calibrated_bus", "ideal_bus",
    "stream_schedule", "demand_schedule",
    "update_io_efficiency", "update_throughput_gbps",
    "CalibrationResult", "calibrate",
    "RcamEngine", "UpdateTrace",
    "EraseStore",
    "EfficiencyReport", "ExperimentConfig", "emit_report",
    "run_experiment", "run_sweep",
    "CamGeometry", "GeometryError", "geometry_for",
    "EquivalenceResult", "ReferenceCam", "equivalence_check",
    "generate_payload", "load_payload", "save_payload",
    "RcamArray",
    "ResourceReport", "m10k_report",
]
