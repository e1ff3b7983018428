"""rcam-sim benchmark: host time and memory of the simulator itself.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  ``NAME`` is one of ``flagship``,
``calibrate``, ``trace`` and ``verify_mixed``, or ``all`` to run each in
turn.  A run starts ``PROCESSES`` fresh worker processes one after the
other, each with one BLAS/OpenMP thread.  Each worker imports ``rcam_sim``
from ``src``, sets up its inputs, runs one untimed warm-up op and then a
closed loop of identical ops (each starts after the previous one ends) for
its share of ``S`` seconds.  Every op is checked against
``perfbench/fingerprint.json``; an op that raises or differs counts as
failed.

With ``--trace 0`` the last line of stdout is a JSON object whose metrics
are the end-to-end ones:

    setup_s        median over the workers of the time from process start
                   to the end of the warm-up op
    ops_per_s      median over the workers of timed ops / their summed wall
                   time
    op_ms_p50      median wall time per op
    op_cpu_ms_p50  median process CPU time per op
    peak_rss_mb    median over the workers of their high-water RSS (1e6 B)

The lines above it also give ``error_rate`` (failed / attempted ops, warm-ups
included), the paper's figures beside the simulated ones, and the host.

With ``--trace 1`` untraced and traced ops alternate; the metrics are the
per-layer ones of ``tracing.layer_metrics`` (medians over traced ops) plus
``trace.overhead_pct``, and the spans go to ``perfbench/out``.  All times
are host times; simulated statistics are checked, not ranked.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads
from tracing import LAYER_UNITS

HERE = Path(__file__).resolve().parent
PROCESSES = 3
OUT = HERE / "out"
# Seconds a worker may take beyond its share of the measuring time.
WORKER_GRACE_S = 120
PAPER = {"efficiency": {"s1": 0.101, "s2": 0.498, "s3": 0.968},
         "cycles": {"s1": 131072, "s2": 4096, "s3": 2049}}


class BenchError(RuntimeError):
    """A worker could not run; no result is printed."""


def _worker_env() -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


def _run_worker(args, seconds: float, index: int) -> tuple[float, dict]:
    """Start one worker; returns (set-up seconds, its result record)."""
    cmd = [sys.executable, str(HERE / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(seconds), "--trace", str(args.trace),
           "--scratch", str(OUT)]
    if args.trace:
        cmd += ["--spans", str(OUT / f"spans-{args.workload}-seed{args.seed}"
                                     f"-p{index}.jsonl")]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=_worker_env(),
                            text=True)
    try:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - start
        result = proc.stdout.readline()
        code = proc.wait(timeout=seconds + WORKER_GRACE_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker for {args.workload} did not finish")
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if code != 0 or not ready or not result:
        raise BenchError(f"worker for {args.workload} exited with code {code}")
    return setup_s, json.loads(result)


def _print_accuracy(workload: str, stats: dict | None) -> None:
    """Model accuracy from the last op's output, beside the speed numbers."""
    if not stats:
        return
    if workload in ("flagship", "trace"):
        cycles = stats["cycles"]
        print("  simulated cycles (paper): " + ", ".join(
            f"{a}={cycles[a]['total_cycles']} ({PAPER['cycles'][a]})"
            for a in sorted(cycles)))
        if "events" in stats:
            print("  trace events: " + ", ".join(
                f"{a}={n}" for a, n in sorted(stats["events"].items())))
    elif workload == "calibrate":
        sim = stats["simulated"]
        print("  calibrated efficiency (paper): " + ", ".join(
            f"{a}={100 * sim[a]:.2f}% ({100 * PAPER['efficiency'][a]:.1f}%)"
            for a in sorted(sim))
              + f"; max_residual={100 * stats['max_residual']:.3f}%")
    elif workload == "verify_mixed":
        print(f"  verify: exit code {stats['exit_code']}, "
              f"{stats['iterations_ok']} iterations ok")


def run_workload(args) -> dict:
    OUT.mkdir(exist_ok=True)
    share = args.seconds / PROCESSES
    setups, results = [], []
    for index in range(PROCESSES):
        setup_s, result = _run_worker(args, share, index)
        setups.append(setup_s)
        results.append(result)

    def pooled(key):
        return [v for r in results for v in r.get(key, ())]

    walls, cpus = pooled("wall_s"), pooled("cpu_s")
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    env = results[0]["env"]
    print(f"# {args.workload} seed={args.seed} trace={args.trace}: "
          f"{PROCESSES} sequential processes, 1 thread each, nproc="
          f"{os.cpu_count()}, python {env['python']}, numpy {env['numpy']}")
    print(f"  ops: {len(walls)} timed untraced + {len(pooled('traced_wall_s'))}"
          f" traced, {attempted} attempted incl. warm-ups, {failed} failed, "
          f"error_rate={failed / attempted:g}")
    for problem in (p for r in results for p in r["problems"]):
        print(f"  FAILED: {problem}")
    _print_accuracy(args.workload, results[-1]["stats"])

    if args.trace:
        metrics = {}
        layers = pooled("layers")
        for name, unit in LAYER_UNITS.items():
            metrics[name] = {
                "value": statistics.median(op[name] for op in layers),
                "unit": unit}
        plain_ms = 1e3 * statistics.median(walls)
        traced_ms = 1e3 * statistics.median(pooled("traced_wall_s"))
        metrics["trace.overhead_pct"] = {
            "value": 100 * (traced_ms - plain_ms) / plain_ms, "unit": "%"}
        covered = [c / w for c, w in zip(pooled("span_self_s"),
                                         pooled("traced_wall_s"))]
        print(f"  span self-times sum to {100 * min(covered):.2f}-"
              f"{100 * max(covered):.2f}% of each traced op's wall time")
        _print_shares(metrics, traced_ms)
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "ops_per_s": {
                "value": statistics.median(len(r["wall_s"]) / sum(r["wall_s"])
                                           for r in results),
                "unit": "ops/s"},
            "op_ms_p50": {"value": 1e3 * statistics.median(walls),
                          "unit": "ms"},
            "op_cpu_ms_p50": {"value": 1e3 * statistics.median(cpus),
                              "unit": "ms"},
            "peak_rss_mb": {
                "value": statistics.median(r["peak_rss_mb"] for r in results),
                "unit": "MB"},
        }
        print(f"  op wall ms: p50 over {len(walls)} ops, max "
              f"{1e3 * max(walls):.2f}; set-ups "
              + ", ".join(f"{s:.3f}" for s in setups) + " s")
    for name, m in metrics.items():
        print(f"  {name:40s} {m['value']:14.4f} {m['unit']}")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def _print_shares(metrics: dict, traced_ms: float) -> None:
    """Self-time share of the traced op per layer, largest first."""
    shares = sorted(((metrics[n]["value"] / traced_ms, n) for n in LAYER_UNITS
                     if n.endswith(".self_ms")), reverse=True)
    print("  self-time share of the traced op (median "
          f"{traced_ms:.2f} ms):")
    for share, name in shares:
        if share >= 0.005:
            print(f"    {100 * share:5.1f}%  {name}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="rcam-sim benchmark (see the module docstring)")
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2 ** 64:
        parser.error("--seed must lie in [0, 2**64)")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        for name in names:
            summary = run_workload(argparse.Namespace(**{**vars(args),
                                                         "workload": name}))
            print(json.dumps(summary))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
