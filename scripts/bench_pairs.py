#!/usr/bin/env python3
"""Alternating parent/change runs of a perfbench workload or of --outside.

    python3 scripts/bench_pairs.py --parent REV --workload NAME --pairs N \\
        --seconds S --seed K --out BENCH_<pr>.json
    python3 scripts/bench_pairs.py --parent REV --outside --pairs N \\
        --seed K --out BENCH_<pr>.json

Builds two sibling trees in one temporary directory, ``parent/`` and
``change/``, so that neither side runs from a path of another length or
place.  ``parent/`` is the tree of git revision REV (exported with
``git archive``, so the repository gains no worktree entry) with its
``perfbench/`` and ``BENCHMARK.json`` replaced by this checkout's (without
``perfbench/out/``), so that both sides run one harness and differ only in
``src/``.  The trade-off: a harness that calls API the parent lacks fails
on the parent side.  ``change/`` is a copy of this working tree without
``.git``, ``perfbench/out`` or ``__pycache__``.  It then runs
``perfbench/run.py --workload NAME --seed K --seconds S --trace 0`` in
each tree, N pairs of runs: the parent goes first in odd pairs and the
change in even ones.  Each run's result line (the JSON line
``run.py`` prints last) goes into ``runs``.  ``summary[NAME]`` gives, for
each end-to-end metric of ``BENCHMARK.json``, each side's median and
quartiles (``statistics.quantiles``, n=4), the relative change of the
medians and the pairs the change won.  ``src_lines`` counts the lines of
``src/**/*.py`` on each side.  An existing OUT keeps its other workloads,
so one file collects several calls.

``--outside`` measures, in the same alternating pairs, what perfbench does
not, and writes it to OUT's ``outside_perfbench`` with the same summary:

* ``large_run_wall_s`` and ``large_run_peak_rss_mb``: a fresh
  ``rcam-sim run --arch all --depth 1048576 --width 8 --seed K`` process
  (verified, 1,000 keys), from its start to its exit, and its high-water
  RSS (1e6 B);
* ``flagship_op_ms`` and ``flagship_minflt_per_op``: in a fresh process
  that runs the flagship op (``run_experiment`` on ``configs/flagship.json``
  at seed K, and its JSON report) ``FLAGSHIP_OPS`` times after one warm-up
  op, the median wall time and minor page faults (``ru_minflt``) per op.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SIDES = ("parent", "change")
LARGE_DEPTH = 1 << 20
FLAGSHIP_OPS = 30
# The --outside metrics, each better lower.
OUTSIDE_METRICS = ("large_run_wall_s", "large_run_peak_rss_mb",
                   "flagship_op_ms", "flagship_minflt_per_op")
# Runs in the tree under test: argv is the table depth, the seed and the op
# count.
_FLAGSHIP_LOOP = """
import json, resource, statistics, sys, time
from rcam_sim import experiment
config = experiment.load_config("configs/flagship.json")
config = experiment.ExperimentConfig.from_dict({
    **config.to_dict(), "depth_n": int(sys.argv[1]), "seed": int(sys.argv[2])})
experiment.run_experiment(config).to_json()
wall, faults = [], []
for _ in range(int(sys.argv[3])):
    t0 = time.perf_counter()
    f0 = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    experiment.run_experiment(config).to_json()
    faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - f0)
    wall.append(time.perf_counter() - t0)
print(json.dumps({"op_ms": 1e3 * statistics.median(wall),
                  "minflt": statistics.median(faults)}))
"""


def export_parent(root: Path, rev: str, dest: Path) -> None:
    """Write the tree of ``rev`` of the repository at ``root`` to ``dest``,
    with ``root``'s ``perfbench/`` (without ``out/``) and ``BENCHMARK.json``
    in place of the revision's."""
    archive = subprocess.run(["git", "archive", rev], cwd=root,
                             capture_output=True, check=True).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)
    shutil.rmtree(dest / "perfbench", ignore_errors=True)
    shutil.copytree(root / "perfbench", dest / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copyfile(root / "BENCHMARK.json", dest / "BENCHMARK.json")


def sibling_trees(root: Path, rev: str, dest: Path) -> dict[str, Path]:
    """Write ``dest/parent``, the tree of ``rev`` as ``export_parent``
    writes it, and ``dest/change``, a copy of ``root``'s working tree
    without ``.git``, ``perfbench/out`` or ``__pycache__``; return both by
    side.  The side names are of equal length."""
    trees = {side: dest / side for side in SIDES}
    trees["parent"].mkdir()
    export_parent(root, rev, trees["parent"])
    shutil.copytree(root, trees["change"], ignore=lambda folder, names: [
        name for name in names if name in (".git", "__pycache__")
        or (name == "out" and Path(folder) == root / "perfbench")])
    return trees


def run_pairs(workload: str, seed: int, pairs: int, run) -> list[dict]:
    """``run(side)`` for each side of each pair, alternating the order."""
    records = []
    for pair in range(1, pairs + 1):
        for side in SIDES if pair % 2 else SIDES[::-1]:
            records.append({"side": side, "workload": workload, "seed": seed,
                            "pair": pair, "result": run(side)})
    return records


def summarise(records: list[dict], better: dict[str, str]) -> dict:
    """Per metric: each side's median, quartiles and IQR, the change of the
    medians relative to the parent's, and how many pairs the change won.
    ``better`` maps each metric to "lower" or "higher"."""
    values = {side: {} for side in SIDES}
    for r in records:
        values[r["side"]][r["pair"]] = r["result"]["metrics"]
    pairs = sorted(values["parent"])
    summary = {"pairs": len(pairs)}
    for name, direction in better.items():
        side = {s: [values[s][p][name]["value"] for p in pairs] for s in SIDES}
        stats = {}
        for s in SIDES:
            q1, median, q3 = statistics.quantiles(side[s], n=4)
            stats.update({f"{s}_median": median, f"{s}_quartiles": [q1, q3],
                          f"{s}_iqr": q3 - q1})
        sign = 1 if direction == "higher" else -1
        wins = sum(sign * (c - p) > 0
                   for p, c in zip(side["parent"], side["change"]))
        summary[name] = {
            **stats, "change_vs_parent":
                stats["change_median"] / stats["parent_median"] - 1,
            "change_wins": f"{wins}/{len(pairs)}"}
    return summary


def src_lines(tree: Path) -> int:
    return sum(len(path.read_text().splitlines())
               for path in (tree / "src").rglob("*.py"))


def _perfbench(tree: Path, args) -> dict:
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", repr(args.seconds),
         "--trace", "0"], cwd=tree, capture_output=True, text=True, check=True)
    return json.loads(done.stdout.splitlines()[-1])


def _child(tree: Path, argv: list[str]) -> tuple[float, str, int]:
    """Run ``python argv`` in ``tree`` with its ``src`` on the path; returns
    its wall seconds, its stdout and its high-water RSS in KiB."""
    env = {**os.environ, "PYTHONPATH": str(tree / "src"),
           "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
           "MKL_NUM_THREADS": "1"}
    with tempfile.TemporaryFile() as out, tempfile.TemporaryFile() as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *argv], cwd=tree, env=env,
                                stdout=out, stderr=err)
        # wait4 gives this child's own resource usage
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        if proc.returncode:
            raise RuntimeError(f"{argv[:3]} failed in {tree}: "
                               f"{err.read().decode()}")
        return wall, out.read().decode(), usage.ru_maxrss


def outside(tree: Path, seed: int, large_depth: int = LARGE_DEPTH,
            flagship_depth: int = 65536, ops: int = FLAGSHIP_OPS) -> dict:
    """One side's ``--outside`` numbers, as a perfbench-style result."""
    wall, _, rss_kib = _child(tree, [
        "-m", "rcam_sim.cli", "run", "--arch", "all", "--depth",
        str(large_depth), "--width", "8", "--seed", str(seed)])
    _, stdout, _ = _child(tree, ["-c", _FLAGSHIP_LOOP, str(flagship_depth),
                                 str(seed), str(ops)])
    flagship = json.loads(stdout)
    values = (wall, rss_kib * 1024 / 1e6, flagship["op_ms"],
              flagship["minflt"])
    return {"failed": 0, "metrics": {
        name: {"value": v} for name, v in zip(OUTSIDE_METRICS, values)}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="git revision")
    what = parser.add_mutually_exclusive_group(required=True)
    what.add_argument("--workload")
    what.add_argument("--outside", action="store_true",
                      help="measure the large run and the flagship op's "
                           "page faults instead of a perfbench workload")
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2, for the quartiles")
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in benchmark["end_to_end"]}

    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as scratch:
        trees = sibling_trees(ROOT, args.parent, Path(scratch))
        if args.outside:
            records = run_pairs("outside", args.seed, args.pairs,
                                lambda side: outside(trees[side], args.seed))
        else:
            records = run_pairs(args.workload, args.seed, args.pairs,
                                lambda side: _perfbench(trees[side], args))
        lines = {side: src_lines(tree) for side, tree in trees.items()}

    doc = json.loads(args.out.read_text()) if args.out.exists() else {}
    doc["src_lines"] = lines
    if args.outside:
        doc["outside_perfbench"] = {
            "description": (
                "scripts/bench_pairs.py --outside: the parent "
                f"({args.parent}) and this change, alternating by pair, each "
                "number from a fresh process (see the script's docstring); "
                "RSS in 1e6 B"),
            "host": (f"{os.cpu_count()}-CPU {platform.machine()} "
                     f"{platform.system()}, Python "
                     f"{platform.python_version()}"),
            "summary": summarise(records,
                                 dict.fromkeys(OUTSIDE_METRICS, "lower")),
            "runs": records}
        args.out.write_text(json.dumps(doc, indent=1) + "\n")
        return 0
    doc.setdefault("description", (
        f"perfbench/run.py --seconds {args.seconds:g} --trace 0 results of "
        f"the parent ({args.parent}) and this change, alternating by pair "
        "(odd pairs run the parent first), written by "
        "scripts/bench_pairs.py.  IQR is q3 - q1 of statistics.quantiles "
        "(n=4); change_wins counts the pairs the change won."))
    doc.setdefault("summary", {})[args.workload] = summarise(records, better)
    doc.setdefault("failed_ops", {})[args.workload] = {
        side: sum(r["result"]["failed"] for r in records if r["side"] == side)
        for side in SIDES}
    doc["runs"] = [r for r in doc.get("runs", [])
                   if r["workload"] != args.workload] + records
    args.out.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
