"""Experiment orchestration: configs, runs, sweeps and report emission.

Reports are deterministic: identical configs produce byte-identical JSON and
CSV (no timestamps unless explicitly stamped into the metadata field), and
every report embeds the config it came from, the code version and any
calibration residuals.  Throughput and I/O efficiency are recomputed from
the simulated cycle counts at emission time, never stored independently.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

import numpy as np

from ._version import __version__
from .bus import BusModel, update_io_efficiency, update_throughput_gbps
from .calibration import (DEFAULT_CALIBRATED_ETA, DEFAULT_CALIBRATED_OVERHEAD,
                          CalibrationResult)
from .engines import RcamEngine, check_traceable, cycle_total, timing
from .geometry import (ARCHITECTURES, CamGeometry, check_partitions,
                       geometry_for)
from .oracle import ReferenceCam, equivalence_check
from .payload import generate_payload, load_payload, splitmix64
from .resources import m10k_report

SCHEMA_VERSION = 1

# Width sweep with a constant 64-KB table, the published comparison grid.
SWEEP_TABLE_BITS = 65536 * 8
SWEEP_WIDTHS = (8, 16, 32, 64)

# Most search keys one verification takes, refused before any allocation.
MAX_KEY_COUNT = 1 << 20


class ConfigError(ValueError):
    """Raised for invalid experiment configurations."""


class OracleDivergenceError(RuntimeError):
    """An engine disagreed with the brute-force reference."""

    def __init__(self, architecture: str, geometry: CamGeometry, divergence):
        key, index = divergence
        super().__init__(
            f"{architecture} at {geometry.depth_n}x{geometry.word_width_w}: "
            f"match vector for key {key:#x} diverges at word {index}")
        self.architecture = architecture
        self.divergence = divergence


@dataclass(frozen=True)
class ExperimentConfig:
    depth_n: int = 65536
    word_width_w: int = 8
    bus_width_b: int = 256
    partitions_p: int = 8
    clock_mhz: float = 100.0
    architectures: tuple[str, ...] = ("s1", "s2", "s3")
    bus_mode: str = "ideal"
    stream_efficiency: float | None = None
    burst_overhead_cycles: float | None = None
    seed: int = 1
    payload_path: str | None = None
    key_count: int = 1000
    verify_oracle: bool = True
    record_events: bool = field(init=False)  # exactly when a trace is written
    trace_path: str | None = None

    def __post_init__(self) -> None:
        for i, arch in enumerate(self.architectures):
            if arch not in ARCHITECTURES:
                raise ConfigError(f"unknown architecture {arch!r}")
            if arch in self.architectures[:i]:
                raise ConfigError(f"architecture {arch!r} is selected twice")
        if not self.architectures:
            raise ConfigError("at least one architecture is required")
        if self.trace_path == "":
            raise ConfigError("trace_path must not be empty; leave it unset "
                              "for no trace")
        if (self.trace_path is not None and "{arch}" not in self.trace_path
                and len(self.architectures) > 1):
            raise ConfigError(
                "trace_path must contain {arch} when more than one "
                "architecture is selected, or each trace overwrites the last")
        if self.bus_mode not in ("ideal", "calibrated"):
            raise ConfigError(f"unknown bus mode {self.bus_mode!r}")
        if not 0 <= self.key_count <= MAX_KEY_COUNT:
            raise ConfigError(f"key_count must be in [0, {MAX_KEY_COUNT}]")
        if not 0 <= self.seed < 2 ** 64:
            raise ConfigError("seed must be a 64-bit unsigned value")
        # checked whatever is selected: to_dict prints the field without s3
        check_partitions(self.partitions_p)
        geometries = {
            arch: geometry_for(arch, self.depth_n, self.word_width_w,
                               self.bus_width_b, self.partitions_p)
            for arch in self.architectures}
        eta, overhead = self.stream_efficiency, self.burst_overhead_cycles
        if self.bus_mode == "ideal":
            if (eta, overhead) != (None, None):
                raise ConfigError(
                    "the ideal bus takes no stream_efficiency or "
                    "burst_overhead_cycles; set bus_mode to calibrated")
            eta, overhead = 1.0, 0.0
        # Unset calibrated knobs take the shipped calibration, and the
        # fields print the quantised values that the bus simulates.
        bus = BusModel(
            self.bus_width_b, self.clock_mhz, self.bus_mode,
            DEFAULT_CALIBRATED_ETA if eta is None else eta,
            DEFAULT_CALIBRATED_OVERHEAD if overhead is None else overhead)
        if self.bus_mode == "calibrated":
            object.__setattr__(self, "stream_efficiency", bus.stream_efficiency)
            object.__setattr__(self, "burst_overhead_cycles",
                               bus.burst_overhead_cycles)
        object.__setattr__(self, "architectures", tuple(self.architectures))
        object.__setattr__(self, "record_events", self.trace_path is not None)
        # The bus and geometries are resolved once, here, as plain
        # attributes (asdict, == and repr see only the fields); the config
        # is frozen, so they cannot go stale.
        object.__setattr__(self, "geometries", geometries)
        object.__setattr__(self, "_bus", bus)

    def bus(self) -> BusModel:
        return self._bus

    def to_dict(self) -> dict:
        d = asdict(self)
        d["architectures"] = list(self.architectures)
        # Print the s3 partition count simulated, which the table may clamp;
        # the field keeps the request, for configs derived at another size.
        if "s3" in self.geometries:
            d["partitions_p"] = self.geometries["s3"].partitions_p
        return d

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        """Build a config from parsed JSON, checking every value's type.

        ``record_events`` is accepted, so that the config a report embeds
        round-trips, and ignored: it follows ``trace_path``.
        """
        fields = cls.__dataclass_fields__
        unknown = set(data) - set(fields)
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        for name, value in data.items():
            _check_json_type(name, value, fields[name].type)
        return cls(**{k: v for k, v in data.items() if k != "record_events"})


# Value types accepted for each field annotation.
_JSON_TYPES = {"int": int, "float": (int, float), "bool": bool, "str": str,
               "tuple[str, ...]": (list, tuple)}


def _check_json_type(name: str, value, annotation: str) -> None:
    kind, _, optional = annotation.partition(" | ")
    if value is None and optional:
        return
    # bool is an int subclass, but a JSON true is never a number.
    if (not isinstance(value, _JSON_TYPES[kind])
            or isinstance(value, bool) != (kind == "bool")):
        raise ConfigError(
            f"config key {name!r} must be {annotation}, got {value!r}")


def read_config(path) -> dict:
    """The JSON object of a config file, for ``ExperimentConfig.from_dict``."""
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ConfigError("config file must hold a single JSON object")
    return data


def load_config(path) -> ExperimentConfig:
    return ExperimentConfig.from_dict(read_config(path))


@dataclass
class ArchResult:
    architecture: str
    geometry: dict
    bus: BusModel
    total_cycles: int
    trace: dict
    resources: dict
    oracle: dict

    @property
    def table_bits(self) -> int:
        return self.geometry["depth_n"] * self.geometry["word_width_w"]

    def throughput_gbps(self) -> float:
        return update_throughput_gbps(self.table_bits, self.total_cycles,
                                      self.bus)

    def io_efficiency(self) -> float:
        return update_io_efficiency(self.table_bits, self.total_cycles, self.bus)

    def to_dict(self) -> dict:
        return {
            "architecture": self.architecture,
            "geometry": self.geometry,
            "total_cycles": self.total_cycles,
            "update_throughput_gbps": self.throughput_gbps(),
            "io_efficiency": self.io_efficiency(),
            "trace": self.trace,
            "resources": self.resources,
            "oracle": self.oracle,
        }


@dataclass
class EfficiencyReport:
    config: dict
    bus: dict
    results: list[ArchResult]
    calibration: dict | None = None
    metadata: dict = field(default_factory=dict)

    def ratios(self) -> dict:
        by_key = {(r.architecture, r.geometry["word_width_w"]): r
                  for r in self.results}
        widths = sorted({r.geometry["word_width_w"] for r in self.results})
        per_width = []
        for w in widths:
            entry = {"word_width_w": w}
            s1 = by_key.get(("s1", w))
            for arch in ("s2", "s3"):
                other = by_key.get((arch, w))
                if s1 is not None and other is not None:
                    entry[f"{arch}_over_s1"] = (other.io_efficiency()
                                                / s1.io_efficiency())
            per_width.append(entry)
        headline = None
        s1_64 = by_key.get(("s1", 64))
        s3_any = [r for r in self.results if r.architecture == "s3"]
        if s1_64 is not None and s3_any:
            headline = s3_any[0].io_efficiency() / s1_64.io_efficiency()
        return {"per_width": per_width, "s3_over_s1_at_w64": headline}

    def to_dict(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "code_version": __version__,
            "config": self.config,
            "bus": self.bus,
            "calibration": self.calibration,
            "results": [r.to_dict() for r in self.results],
            "ratios": self.ratios(),
            "metadata": self.metadata,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2) + "\n"


CSV_COLUMNS = [
    "architecture", "depth_n", "word_width_w", "bus_mode",
    "stream_efficiency", "burst_overhead_cycles", "total_cycles",
    "update_throughput_gbps", "io_efficiency", "rcu_blocks", "erase_blocks",
    "total_m10k", "saving_vs_s1", "erase_span_first", "erase_span_last",
    "write_span_first", "write_span_last", "catch_up_cycles", "stall_cycles",
    "oracle_checked", "oracle_passed",
]


def report_csv(report: EfficiencyReport) -> str:
    """One row per (architecture, width), stable column order."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for r in report.results:
        writer.writerow([
            r.architecture, r.geometry["depth_n"], r.geometry["word_width_w"],
            report.bus["mode"], report.bus["stream_efficiency"],
            report.bus["burst_overhead_cycles"], r.total_cycles,
            f"{r.throughput_gbps():.6f}", f"{r.io_efficiency():.8f}",
            r.resources["rcu_blocks"], r.resources["erase_blocks"],
            r.resources["total_m10k"], f"{r.resources['saving_vs_s1']:.6f}",
            r.trace["erase_span"][0], r.trace["erase_span"][1],
            r.trace["write_span"][0], r.trace["write_span"][1],
            r.trace["catch_up_cycles"], r.trace["stall_cycles"],
            r.oracle["keys_checked"], r.oracle["passed"],
        ])
    return out.getvalue()


def emit_report(report: EfficiencyReport, out_path, fmt: str = "json") -> Path:
    path = Path(out_path)
    if fmt == "json":
        path.write_text(report.to_json(), encoding="utf-8")
    elif fmt == "csv":
        path.write_text(report_csv(report), encoding="utf-8")
    else:
        raise ConfigError(f"unknown report format {fmt!r}")
    return path


def search_keys(seed: int, payload: np.ndarray, geometry: CamGeometry,
                count: int) -> np.ndarray:
    """Deterministic key sample: half uniform, half drawn from the payload."""
    base = np.uint64(seed ^ 0xD6E8FEB86659FD93) + np.arange(count, dtype=np.uint64)
    keys = splitmix64(base) & np.uint64(geometry.word_mask)
    hits = count // 2
    idx = (splitmix64(base[:hits] ^ np.uint64(0xA5A5A5A5A5A5A5A5))
           % np.uint64(payload.size)).astype(np.intp)
    keys[:hits] = payload[idx]
    return keys


def run_experiment(config: ExperimentConfig,
                   calibration: CalibrationResult | None = None) -> EfficiencyReport:
    """Run the selected architectures at one geometry and report.

    Every trace comes from the cycle schedule (``timing``).  An engine is
    built and updated only to verify the table against the reference; any
    oracle divergence aborts the run with diagnostics.  The architectures
    share N, W and the seed, so one payload, reference and key sample serve
    them all.  A payload file is read once, even when verification is off,
    so a bad one fails; a generated payload is made only for verification.
    A trace too long to record, of any architecture, is refused before
    anything is timed or written.
    """
    bus = config.bus()
    if config.record_events:
        # every trace is refused or written, never some of them
        for arch in config.architectures:
            check_traceable(cycle_total(config.geometries[arch], bus))
    verify = config.verify_oracle and config.key_count > 0
    shared = config.geometries[config.architectures[0]]
    if config.payload_path is not None:
        payload = load_payload(config.payload_path, shared)
    elif verify:
        payload = generate_payload(config.seed, shared)
    if verify:
        reference = ReferenceCam(config.depth_n, config.word_width_w)
        reference.load_full(payload)
        keys = search_keys(config.seed, payload, shared, config.key_count)
    results = []
    for arch in config.architectures:
        geometry = config.geometries[arch]
        trace = timing(geometry, bus, record_events=config.record_events)
        oracle_info = {"keys_checked": 0, "passed": None}
        if verify:
            engine = RcamEngine(geometry)
            engine.update(payload)
            verdict = equivalence_check(engine.cam, reference, keys)
            if not verdict.passed:
                raise OracleDivergenceError(arch, geometry,
                                            verdict.first_divergence)
            oracle_info = {"keys_checked": verdict.keys_checked, "passed": True}
        if config.trace_path:
            tpath = Path(str(config.trace_path).replace("{arch}", arch))
            tpath.write_text(trace.to_jsonl(), encoding="utf-8")
        results.append(ArchResult(
            architecture=arch, geometry=geometry.describe(),
            bus=bus, total_cycles=trace.total_cycles,
            trace=trace.summary(),
            resources=m10k_report(geometry).to_dict(),
            oracle=oracle_info))
    return EfficiencyReport(
        config=config.to_dict(), bus=bus.describe(), results=results,
        calibration=calibration.to_dict() if calibration else None)


def run_sweep(base: ExperimentConfig,
              calibration: CalibrationResult | None = None) -> EfficiencyReport:
    """Constant-table-size width sweep (one row per architecture x width).

    Every run is ``base`` with the depth and width of one sweep point.  The
    points share one table size, so s3 runs the same partition count at
    each, and the report prints that count.  ``base`` takes no trace path,
    since every width would write, and overwrite, the same files.
    """
    if base.trace_path is not None:
        raise ConfigError("a sweep writes no traces; unset trace_path")
    results = []
    for width in SWEEP_WIDTHS:
        config = replace(base, depth_n=SWEEP_TABLE_BITS // width,
                         word_width_w=width)
        results.extend(run_experiment(config, calibration).results)
    sweep_config = {
        "kind": "width_sweep", "table_bits": SWEEP_TABLE_BITS,
        "widths": list(SWEEP_WIDTHS), "architectures": list(base.architectures),
        "bus_mode": base.bus_mode, "stream_efficiency": base.stream_efficiency,
        "burst_overhead_cycles": base.burst_overhead_cycles, "seed": base.seed,
        "key_count": base.key_count,
        "partitions_p": config.to_dict()["partitions_p"],
        "bus_width_b": base.bus_width_b, "clock_mhz": base.clock_mhz,
    }
    return EfficiencyReport(
        config=sweep_config, bus=base.bus().describe(), results=results,
        calibration=calibration.to_dict() if calibration else None)
