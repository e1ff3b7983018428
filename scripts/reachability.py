#!/usr/bin/env python3
"""The functions of ``src/rcam_sim`` that no entry point reaches.

    python3 scripts/reachability.py

Runs, under ``sys.setprofile``, every entry point a user or the benchmark
has: each CLI command (``run`` as JSON, CSV, traced, calibrated, from a
config and from a payload file, and unverified; ``sweep`` as JSON and CSV
with a calibration file; ``calibrate``; ``verify``; and refused inputs),
both experiment scripts, and the op of each perfbench workload
(``perfbench/workloads.py`` is loaded from disk and only read).  Sizes are
small wherever the entry point takes them.  The payload file of ``run
--payload`` is written with the exported ``save_payload``.

Every function of ``src/rcam_sim`` (lambdas and comprehensions aside) that
no call reached is printed as ``module:qualname``.  ``ALLOWED`` names the
functions that may go unreached, each with its reason.  The exit code is 1
when any other function goes unreached, or when an allowed one is reached
or no longer exists, so the list stays exact.  Only functions are gated,
not lines.
"""

from __future__ import annotations

import contextlib
import importlib.util
import io
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "rcam_sim"
sys.path.insert(0, str(ROOT / "src"))  # this checkout's library, always

ALLOWED = {
    "rcu:RcamArray.search_batch":
        "tests use it: a length-N match vector per key",
    "rcu:RcamArray._unpack":
        "only RcamArray.search_batch and slice_match call it",
    "rcu:RcamArray.slice_match":
        "tests use it: one slice's match vector; kept in the library as a "
        "documented view of one byte slice",
    "oracle:ReferenceCam.search_batch":
        "tests use it: the reference's O(N) scan",
    "experiment:OracleDivergenceError.__init__":
        "raised only when the engine and the reference diverge",
}


def functions() -> dict[tuple[str, str], str]:
    """``(file, qualname) -> "module:qualname"`` of every named function
    defined in the package, from its compiled code objects."""
    found = {}
    for path in sorted(PACKAGE.glob("*.py")):
        stack = [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
        while stack:
            code = stack.pop()
            stack += [c for c in code.co_consts if hasattr(c, "co_qualname")]
            if "<" not in code.co_qualname:
                found[str(path), code.co_qualname] = \
                    f"{path.stem}:{code.co_qualname}"
    return found


def _load_workloads():
    spec = importlib.util.spec_from_file_location(
        "_reach_workloads", ROOT / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _run_script(name: str, argv: list[str]) -> None:
    spec = importlib.util.spec_from_file_location(
        f"_reach_{name}", ROOT / "scripts" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    saved, sys.argv = sys.argv, [f"{name}.py", *argv]
    try:
        module.main()
    finally:
        sys.argv = saved


def entry_points(tmp: Path) -> None:
    """Call every entry point once."""
    from rcam_sim import cli, save_payload
    from rcam_sim.geometry import geometry_for
    from rcam_sim.payload import generate_payload

    g = geometry_for("s1", 1024, 8)
    save_payload(tmp / "payload.bin", generate_payload(7, g), g)
    small = ["--depth", "1024", "--keys", "16"]
    commands = [  # (exit code, argv)
        (0, ["run", *small, "--out", str(tmp / "run.json")]),
        (0, ["run", *small, "--format", "csv"]),
        (0, ["run", *small, "--arch", "s1", "--no-verify",
             "--trace", str(tmp / "trace.jsonl")]),
        (0, ["run", *small, "--bus", "calibrated", "--eta", "0.9",
             "--burst-overhead", "1.5"]),
        (0, ["run", "--config", str(ROOT / "configs" / "flagship.json"),
             *small]),
        (0, ["run", *small, "--payload", str(tmp / "payload.bin")]),
        (0, ["calibrate", "--out", str(tmp / "calibration.json")]),
        (0, ["sweep", "--keys", "4", "--bus", "calibrated",
             "--calibration", str(tmp / "calibration.json")]),
        (0, ["sweep", "--keys", "4", "--format", "csv"]),
        (0, ["verify", "--iterations", "3", "--keys", "16"]),
        (1, ["run", "--depth", "1000"]),  # not a whole number of RCBs
        (1, ["calibrate", "--target-s1", "2"]),  # outside (0, 1]
    ]
    for code, argv in commands:
        if cli.main(argv) != code:
            raise RuntimeError(f"rcam-sim {' '.join(argv)} did not exit "
                               f"with {code}")
    _run_script("reproduce_results", ["--keys", "16", "--out-dir", str(tmp)])
    _run_script("partition_sensitivity", ["--depth", "4096", "--width", "16"])
    workloads = _load_workloads()
    for name in workloads.WORKLOADS:
        workloads.prepare(name, workloads.DEFAULT_SEED, tmp)()


def unreached(known: dict[tuple[str, str], str]) -> list[str]:
    """The functions of ``known`` that no entry point reached."""
    reached = set()

    def profile(frame, event, arg):
        if event == "call":
            reached.add(frame.f_code)

    with tempfile.TemporaryDirectory() as tmp, \
            contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        sys.setprofile(profile)
        try:
            entry_points(Path(tmp))
        finally:
            sys.setprofile(None)
    hit = {(code.co_filename, code.co_qualname) for code in reached}
    return sorted(name for key, name in known.items() if key not in hit)


def main() -> int:
    known = functions()
    missing = unreached(known)
    unexpected = [f for f in missing if f not in ALLOWED]
    stale = [f for f in ALLOWED if f not in missing]
    for name in missing:
        print(f"unreached: {name}" + (f"  ({ALLOWED[name]})"
                                      if name in ALLOWED else ""))
    for name in unexpected:
        print(f"error: {name} is reached by no entry point and is not "
              f"allowed", file=sys.stderr)
    for name in stale:
        why = "is reached" if name in known.values() else "no longer exists"
        print(f"error: allowed {name} {why}; drop it from ALLOWED",
              file=sys.stderr)
    return 1 if unexpected or stale else 0


if __name__ == "__main__":
    raise SystemExit(main())
