"""One benchmark process: set up, one warm-up op, then a closed loop of ops.

Started by ``run.py`` with one thread for numpy's BLAS and ``src`` on the
path.  It writes two JSON lines to stdout: ``{"ready": true}`` once set-up
and the warm-up op are done, so the parent can time set-up from process
start, and the result when the timed phase ends.  With ``--trace 1`` it
alternates untraced and traced ops and writes the traced ops' spans to
``--spans``.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import tempfile
import time
import traceback
from pathlib import Path

import workloads

# The longest list of op problems a worker reports; the count is exact.
MAX_PROBLEMS = 5


def import_library() -> None:
    """Import rcam_sim from this checkout's ``src``, never from elsewhere."""
    src = workloads.ROOT / "src"
    sys.path.insert(0, str(src))
    import rcam_sim
    if not Path(rcam_sim.__file__).resolve().is_relative_to(src):
        raise ImportError(f"rcam_sim imported from {rcam_sim.__file__}, "
                          f"not from {src}")


class Runner:
    """Runs and checks the ops of one workload."""

    def __init__(self, workload: str, seed: int, scratch: Path,
                 fingerprint: dict):
        self.workload = workload
        self.seed = seed
        self.fingerprint = fingerprint
        self.op = workloads.prepare(workload, seed, scratch)
        self.warm_up = None
        self.last = None
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def run_once(self, recorder=None, op_id=None):
        """One timed op; returns (wall s, cpu s) and counts a failure."""
        self.attempted += 1
        problems = []
        wall0, cpu0 = time.perf_counter(), time.process_time()
        try:
            if recorder is None:
                output = self.op()
            else:
                with recorder.op(op_id):
                    output = self.op()
        except Exception:  # an op that raises is a failed op, not a crash
            problems.append(traceback.format_exc(limit=3))
        wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
        if not problems:
            got = workloads.digest(self.workload, output)
            problems = workloads.check(self.workload, self.seed, got,
                                       self.fingerprint, self.warm_up)
            if self.warm_up is None:
                self.warm_up = got
            self.last = got
        if problems:
            self.failed += 1
            self.problems.extend(problems[:MAX_PROBLEMS - len(self.problems)])
        return wall, cpu


def _emit(record: dict) -> None:
    sys.stdout.write(json.dumps(record) + "\n")
    sys.stdout.flush()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", choices=workloads.WORKLOADS,
                        required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", type=Path, default=None)
    parser.add_argument("--scratch", type=Path, required=True)
    args = parser.parse_args(argv)

    import_library()
    import numpy
    fingerprint = workloads.load_fingerprint()
    with tempfile.TemporaryDirectory(dir=args.scratch) as scratch:
        runner = Runner(args.workload, args.seed, Path(scratch), fingerprint)
        runner.run_once()
        _emit({"ready": True})

        recorder = None
        if args.trace:
            from tracing import SpanRecorder
            recorder = SpanRecorder()
        plain, traced = [], []
        start = time.perf_counter()
        while time.perf_counter() - start < args.seconds:
            plain.append(runner.run_once())
            if recorder is not None:
                with recorder.installed():
                    traced.append(runner.run_once(recorder, len(traced)))

    result = {
        "attempted": runner.attempted, "failed": runner.failed,
        "problems": runner.problems,
        "wall_s": [w for w, _ in plain], "cpu_s": [c for _, c in plain],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                       * 1024 / 1e6,
        "stats": runner.last["stats"] if runner.last else None,
        "env": {"python": sys.version.split()[0], "numpy": numpy.__version__},
    }
    if recorder is not None:
        from tracing import layer_metrics
        ops = [[s for s in recorder.spans if s["op"] == i]
               for i in range(len(traced))]
        result["traced_wall_s"] = [w for w, _ in traced]
        result["layers"] = [layer_metrics(spans) for spans in ops]
        result["span_self_s"] = [sum(s["self_s"] for s in spans) for spans in ops]
        if args.spans is not None:
            with open(args.spans, "w", encoding="utf-8") as fh:
                for span in recorder.spans:
                    fh.write(json.dumps(span) + "\n")
    _emit(result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
