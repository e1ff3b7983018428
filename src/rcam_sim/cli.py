"""Command-line interface: run, sweep, verify, calibrate."""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from ._version import __version__
from .calibration import DEFAULT_TARGETS, CalibrationResult, calibrate
from .engines import RcamEngine
from .experiment import (MAX_KEY_COUNT, ConfigError, ExperimentConfig,
                         OracleDivergenceError, emit_report, read_config,
                         run_experiment, run_sweep, search_keys)
from .geometry import GeometryError, geometry_for
from .oracle import ReferenceCam, equivalence_check
from .payload import generate_payload, splitmix64


def _add_bus_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--bus", choices=["ideal", "calibrated"], default=None,
                   help="bus timing mode (default ideal)")
    p.add_argument("--eta", type=float, default=None,
                   help="streaming efficiency in (0,1] for calibrated mode")
    p.add_argument("--burst-overhead", type=float, default=None,
                   help="per-burst overhead cycles for calibrated mode")
    p.add_argument("--calibration", type=Path, default=None,
                   help="JSON file from 'calibrate --out'; sets the knobs "
                        "and embeds the residuals in the report")
    p.add_argument("--clock", type=float, default=None, help="clock in MHz")
    p.add_argument("--bus-width", type=int, default=None, help="bus bits per beat")


def _load_calibration(path) -> CalibrationResult | None:
    if path is None:
        return None
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ConfigError("calibration file must hold a single JSON object")
    try:
        return CalibrationResult.from_dict(data)
    except KeyError as exc:
        raise ConfigError(f"calibration file lacks the key {exc}") from exc
    except TypeError as exc:
        raise ConfigError(f"malformed calibration file: {exc}") from exc


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rcam-sim",
        description="Functional and timing simulator for RAM-based binary "
                    "CAM update architectures")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run one experiment")
    run.add_argument("--config", type=Path, default=None,
                     help="JSON config file; flags override its values")
    run.add_argument("--arch", choices=["s1", "s2", "s3", "all"], default=None)
    run.add_argument("--depth", type=int, default=None, help="CAM words (N)")
    run.add_argument("--width", type=int, default=None, help="word bits (W)")
    run.add_argument("--partitions", type=int, default=None,
                     help="erase-RAM partitions for s3 (power of two)")
    _add_bus_flags(run)
    run.add_argument("--seed", type=int, default=None)
    run.add_argument("--payload", type=Path, default=None,
                     help="raw payload file of N*W/8 bytes")
    run.add_argument("--keys", type=int, default=None,
                     help="search keys for the oracle check")
    run.add_argument("--no-verify", action="store_true",
                     help="skip the oracle verification pass")
    run.add_argument("--trace", type=Path, default=None,
                     help="write the event trace here ({arch} expands; "
                          "needed with more than one architecture)")
    run.add_argument("--out", type=Path, default=None)
    run.add_argument("--format", choices=["json", "csv"], default="json")

    sweep = sub.add_parser("sweep", help="constant-table-size width sweep")
    sweep.add_argument("--archs", default="s1,s2,s3",
                       help="comma-separated subset of s1,s2,s3")
    _add_bus_flags(sweep)
    sweep.add_argument("--seed", type=int, default=1)
    sweep.add_argument("--keys", type=int, default=256)
    sweep.add_argument("--out", type=Path, default=None)
    sweep.add_argument("--format", choices=["json", "csv"], default="json")

    verify = sub.add_parser("verify", help="randomized oracle fuzzing")
    verify.add_argument("--iterations", type=int, default=20)
    verify.add_argument("--seed", type=int, default=1)
    verify.add_argument("--keys", type=int, default=512)

    cal = sub.add_parser("calibrate", help="fit the bus knobs to targets")
    cal.add_argument("--target-s1", type=float, default=DEFAULT_TARGETS["s1"])
    cal.add_argument("--target-s2", type=float, default=DEFAULT_TARGETS["s2"])
    cal.add_argument("--target-s3", type=float, default=DEFAULT_TARGETS["s3"])
    cal.add_argument("--out", type=Path, default=None)
    return parser


def _bus_config(args, calibration) -> dict:
    """The config keys set by the bus flags, over a calibration file's."""
    keys = {}
    if calibration is not None:
        keys = {"bus_mode": "calibrated",
                "stream_efficiency": calibration.stream_efficiency,
                "burst_overhead_cycles": calibration.burst_overhead_cycles}
    flags = {"bus_mode": args.bus, "stream_efficiency": args.eta,
             "burst_overhead_cycles": args.burst_overhead,
             "clock_mhz": args.clock, "bus_width_b": args.bus_width}
    keys.update({k: v for k, v in flags.items() if v is not None})
    return keys


def _config_from_args(args, calibration) -> ExperimentConfig:
    # Flags override the file's raw values; defaults derive from the merge.
    base = read_config(args.config) if args.config else {}
    overrides = {
        "architectures": (None if args.arch is None else
                          ("s1", "s2", "s3") if args.arch == "all"
                          else (args.arch,)),
        "depth_n": args.depth,
        "word_width_w": args.width,
        "partitions_p": args.partitions,
        "seed": args.seed,
        "payload_path": None if args.payload is None else str(args.payload),
        "key_count": args.keys,
        "trace_path": None if args.trace is None else str(args.trace),
    }
    base.update({k: v for k, v in overrides.items() if v is not None})
    base.update(_bus_config(args, calibration))
    if args.no_verify:
        base["verify_oracle"] = False
    return ExperimentConfig.from_dict(base)


def _print_results(report) -> None:
    for r in report.results:
        line = (f"{r.architecture}  {r.geometry['depth_n']}x"
                f"{r.geometry['word_width_w']}  cycles={r.total_cycles}  "
                f"throughput={r.throughput_gbps():.3f} Gbps  "
                f"io_efficiency={100 * r.io_efficiency():.2f}%")
        if r.trace["catch_up_cycles"] is not None:
            line += f"  catch_up={r.trace['catch_up_cycles']}"
        print(line)
    headline = report.ratios()["s3_over_s1_at_w64"]
    if headline is not None:
        print(f"s3/s1 efficiency ratio (s1 at 64-bit words): {headline:.2f}x")


def _cmd_run(args) -> int:
    calibration = _load_calibration(args.calibration)
    config = _config_from_args(args, calibration)
    report = run_experiment(config, calibration)
    _print_results(report)
    if args.out:
        path = emit_report(report, args.out, args.format)
        print(f"report written to {path}")
    return 0


def _cmd_sweep(args) -> int:
    calibration = _load_calibration(args.calibration)
    base = ExperimentConfig.from_dict({
        "architectures": [a for a in args.archs.split(",") if a],
        "seed": args.seed, "key_count": args.keys,
        **_bus_config(args, calibration)})
    report = run_sweep(base, calibration)
    _print_results(report)
    if args.out:
        path = emit_report(report, args.out, args.format)
        print(f"report written to {path}")
    return 0


def _cmd_verify(args) -> int:
    """Seeded random configurations, two consecutive updates each, checked
    against the reference CAM."""
    if not 0 <= args.seed < 2 ** 64:
        raise ConfigError("seed must be a 64-bit unsigned value")
    if args.iterations < 0:
        raise ConfigError("iterations must be >= 0")
    if args.keys < 0:
        raise ConfigError("keys must be >= 0")
    if args.keys > MAX_KEY_COUNT:
        raise ConfigError(f"keys must be <= {MAX_KEY_COUNT}")
    depths = (1024, 2048, 4096)
    widths = (8, 16, 32, 64)
    archs = ("s1", "s2", "s3")
    failures = 0
    for it in range(args.iterations):
        # six draws per iteration, so no count allocates up front
        r = splitmix64(np.uint64(args.seed)
                       + np.arange(6 * it, 6 * it + 6, dtype=np.uint64))
        arch = archs[int(r[0]) % len(archs)]
        depth = depths[int(r[1]) % len(depths)]
        width = widths[int(r[2]) % len(widths)]
        geometry = geometry_for(arch, depth, width)
        engine = RcamEngine(geometry)
        reference = ReferenceCam(depth, width)
        verdict = None
        for round_no in range(2):
            payload = generate_payload(int(r[3 + round_no]) or 1, geometry)
            engine.update(payload)
            reference.load_full(payload)
            keys = search_keys(int(r[5]), payload, geometry, args.keys)
            verdict = equivalence_check(engine.cam, reference, keys)
            if not verdict.passed:
                break
        status = "ok" if verdict.passed else f"DIVERGED {verdict.first_divergence}"
        print(f"[{it + 1:3d}/{args.iterations}] {arch} {depth}x{width}: {status}")
        failures += 0 if verdict.passed else 1
    if failures:
        print(f"{failures} of {args.iterations} iterations diverged")
        return 2
    print(f"all {args.iterations} iterations match the reference")
    return 0


def _cmd_calibrate(args) -> int:
    targets = {"s1": args.target_s1, "s2": args.target_s2, "s3": args.target_s3}
    result = calibrate(targets)
    print(f"fitted stream efficiency (eta) = {result.stream_efficiency:.3f}")
    print(f"fitted burst overhead cycles   = {result.burst_overhead_cycles:.2f}")
    for arch in sorted(result.targets):
        print(f"  {arch}: simulated {100 * result.simulated[arch]:6.2f}%  "
              f"target {100 * result.targets[arch]:6.2f}%  "
              f"residual {100 * result.residuals[arch]:.3f}% (relative)")
    print(f"max relative residual = {100 * result.max_residual:.3f}%")
    if args.out:
        Path(args.out).write_text(
            json.dumps(result.to_dict(), indent=2) + "\n", encoding="utf-8")
        print(f"calibration written to {args.out}")
    return 0


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    handlers = {"run": _cmd_run, "sweep": _cmd_sweep, "verify": _cmd_verify,
                "calibrate": _cmd_calibrate}
    try:
        return handlers[args.command](args)
    except OracleDivergenceError as exc:
        print(f"oracle divergence: {exc}", file=sys.stderr)
        return 2
    except (ConfigError, GeometryError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
