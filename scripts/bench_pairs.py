#!/usr/bin/env python3
"""Alternating parent/change runs of one perfbench workload.

    python3 scripts/bench_pairs.py --parent REV --workload NAME --pairs N \\
        --seconds S --seed K --out BENCH_<pr>.json

Exports the tree of git revision REV into a temporary directory (with
``git archive``, so the repository gains no worktree entry) and runs
``perfbench/run.py --workload NAME --seed K --seconds S --trace 0`` there
and in this checkout, N pairs of runs: the parent goes first in odd pairs
and the change in even ones.  Each run's result line (the JSON line
``run.py`` prints last) goes into ``runs``.  ``summary[NAME]`` gives, for
each end-to-end metric of ``BENCHMARK.json``, each side's median and
quartiles (``statistics.quantiles``, n=4), the relative change of the
medians and the pairs the change won.  ``src_lines`` counts the lines of
``src/**/*.py`` on each side.  An existing OUT keeps its other workloads,
so one file collects several calls.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SIDES = ("parent", "change")


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


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="git revision")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2, for the quartiles")
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in benchmark["end_to_end"]}

    with tempfile.TemporaryDirectory(prefix="bench-parent-") as parent:
        archive = subprocess.run(["git", "archive", args.parent], cwd=ROOT,
                                 capture_output=True, check=True).stdout
        subprocess.run(["tar", "-x", "-C", parent], input=archive, check=True)
        trees = {"parent": Path(parent), "change": ROOT}
        records = run_pairs(args.workload, args.seed, args.pairs,
                            lambda side: _perfbench(trees[side], args))
        lines = {side: src_lines(tree) for side, tree in trees.items()}

    doc = json.loads(args.out.read_text()) if args.out.exists() else {}
    doc.setdefault("description", (
        f"perfbench/run.py --seconds {args.seconds:g} --trace 0 results of "
        f"the parent ({args.parent}) and this change, alternating by pair "
        "(odd pairs run the parent first), written by "
        "scripts/bench_pairs.py.  IQR is q3 - q1 of statistics.quantiles "
        "(n=4); change_wins counts the pairs the change won."))
    doc["src_lines"] = lines
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
