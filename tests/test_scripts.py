"""Smoke tests of the scripts under ``scripts/``."""

import csv
import hashlib
import importlib.util
import json
import os
import platform
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from test_golden_reports import GOLDEN

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_reproduce_results_writes_its_artefacts(tmp_path, monkeypatch, capsys):
    script = _load("reproduce_results")
    monkeypatch.setattr(sys, "argv", ["reproduce_results.py", "--keys", "16",
                                      "--out-dir", str(tmp_path)])
    assert script.main() == 0
    stdout = capsys.readouterr().out
    assert "s3 over s1 (s1 at 64-bit words)" in stdout
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "calibration.json", "sweep_calibrated.csv", "sweep_calibrated.json",
        "sweep_ideal.csv", "sweep_ideal.json"]
    # The ideal sweep is the one the `sweep` subcommand pins.
    for fmt in ("json", "csv"):
        data = (tmp_path / f"sweep_ideal.{fmt}").read_bytes()
        assert hashlib.sha256(data).hexdigest() == GOLDEN[("ideal", fmt)]
    fit = json.loads((tmp_path / "calibration.json").read_text())
    calibrated = json.loads((tmp_path / "sweep_calibrated.json").read_text())
    assert calibrated["calibration"] == fit
    assert calibrated["bus"]["stream_efficiency"] == fit["stream_efficiency"]
    assert (calibrated["bus"]["burst_overhead_cycles"]
            == fit["burst_overhead_cycles"])
    with open(tmp_path / "sweep_calibrated.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 12
    assert {r["bus_mode"] for r in rows} == {"calibrated"}
    assert {r["oracle_passed"] for r in rows} == {"True"}


def test_partition_sensitivity_runs(monkeypatch, capsys):
    script = _load("partition_sensitivity")
    monkeypatch.setattr(sys, "argv", ["partition_sensitivity.py",
                                      "--depth", "4096", "--width", "16"])
    assert script.main() == 0
    stdout = capsys.readouterr().out
    assert "== partition sweep at 4096x16, ideal bus ==" in stdout
    assert "1-beat prefetch" in stdout
    # cycle counts, spans, catch-up lengths and stalls are fixed outputs
    assert hashlib.sha256(stdout.encode("utf-8")).hexdigest() == (
        "ef18969b139f1c57b5f1aef9b84b818d6c221bd4e0db191be067c79a9978a3eb")


def test_bench_pairs_alternates_and_summarises():
    script = _load("bench_pairs")
    calls = []

    def stub(side):  # no git, no subprocess: op times 10..14 vs 9..5 ms
        calls.append(side)
        pair = (len(calls) + 1) // 2
        ms = 9 + pair if side == "parent" else 10 - pair
        rss = 30.0 if side == "parent" else 30.0 + pair % 2
        return {"failed": 0, "metrics": {
            "op_ms_p50": {"value": float(ms)},
            "peak_rss_mb": {"value": rss}}}

    records = script.run_pairs("calibrate", 1, 5, stub)
    # the parent runs first in odd pairs, the change in even ones
    assert calls == ["parent", "change", "change", "parent", "parent",
                     "change", "change", "parent", "parent", "change"]
    assert [r["pair"] for r in records] == [1, 1, 2, 2, 3, 3, 4, 4, 5, 5]
    summary = script.summarise(records, {"op_ms_p50": "lower",
                                         "peak_rss_mb": "lower"})
    op = summary["op_ms_p50"]
    assert summary["pairs"] == 5
    # exclusive quartiles of 10..14 and 5..9
    assert op["parent_median"] == 12.0 and op["change_median"] == 7.0
    assert op["parent_quartiles"] == [10.5, 13.5] and op["parent_iqr"] == 3.0
    assert op["change_quartiles"] == [5.5, 8.5]
    assert op["change_vs_parent"] == 7.0 / 12.0 - 1
    assert op["change_wins"] == "5/5"
    # a tie is no win; the change's RSS is higher in the odd pairs
    assert summary["peak_rss_mb"]["change_wins"] == "0/5"
    higher = script.summarise(records, {"peak_rss_mb": "higher"})
    assert higher["peak_rss_mb"]["change_wins"] == "3/5"


def test_bench_pairs_outside_measures_each_tree():
    # real fresh processes on this checkout, at a small depth
    script = _load("bench_pairs")
    result = script.outside(SCRIPTS.parent, 3, large_depth=4096,
                            flagship_depth=4096, ops=3)
    metrics = result["metrics"]
    assert result["failed"] == 0
    assert list(metrics) == list(script.OUTSIDE_METRICS)
    assert 0 < metrics["large_run_wall_s"]["value"] < 60
    assert 1 < metrics["large_run_peak_rss_mb"]["value"] < 1024
    assert metrics["flagship_op_ms"]["value"] > 0
    assert metrics["flagship_minflt_per_op"]["value"] >= 0


def test_bench_pairs_runs_this_harness_on_the_parent(tmp_path):
    # a parent commit, then a change to its source and its harness that
    # also leaves benchmark output and bytecode behind
    script = _load("bench_pairs")
    root, scratch = tmp_path / "repo", tmp_path / "scratch"
    parent = {"src/pkg/core.py": "parent", "perfbench/run.py": "parent",
              "perfbench/gone.py": "parent", "BENCHMARK.json": "parent"}
    for name, text in parent.items():
        (root / name).parent.mkdir(parents=True, exist_ok=True)
        (root / name).write_text(text)
    git = ["git", "-c", "user.name=bench", "-c", "user.email=bench@localhost",
           "-c", "commit.gpgsign=false"]
    subprocess.run(git + ["init", "-q"], cwd=root, check=True)
    subprocess.run(git + ["add", "-A"], cwd=root, check=True)
    subprocess.run(git + ["commit", "-qm", "parent"], cwd=root, check=True)
    for name in ("src/pkg/core.py", "perfbench/run.py", "BENCHMARK.json"):
        (root / name).write_text("change")
    (root / "perfbench/gone.py").unlink()
    (root / "perfbench/out").mkdir()
    (root / "perfbench/out/result.json").write_text("{}")
    (root / "src/pkg/__pycache__").mkdir()
    (root / "src/pkg/__pycache__/core.pyc").write_text("")
    (root / "src/pkg/out").mkdir()  # only perfbench/out is benchmark output
    scratch.mkdir()
    trees = script.sibling_trees(root, "HEAD", scratch)
    # both sides run from sibling paths of one length
    assert trees == {"parent": scratch / "parent", "change": scratch / "change"}
    export, change = trees["parent"], trees["change"]
    assert (export / "src/pkg/core.py").read_text() == "parent"
    assert (export / "perfbench/run.py").read_text() == "change"
    assert (export / "BENCHMARK.json").read_text() == "change"
    assert sorted(p.name for p in (export / "perfbench").iterdir()) == [
        "run.py"]
    # the change is the working tree, uncommitted edits included
    assert sorted(str(p.relative_to(change)) for p in change.rglob("*")) == [
        "BENCHMARK.json", "perfbench", "perfbench/run.py", "src", "src/pkg",
        "src/pkg/core.py", "src/pkg/out"]
    assert (change / "src/pkg/core.py").read_text() == "change"


@pytest.mark.skipif(
    platform.system() != "Linux" or platform.libc_ver()[0] != "glibc",
    reason="the fault count depends on glibc's heap trimming")
def test_the_flagship_op_keeps_its_heap_placement(monkeypatch, tmp_path):
    # glibc trims the heap after a compare unless a long-lived block sits
    # above its temporaries; the next op then faults the pages in again.
    # Placements that keep the heap read about 1,100 minor faults an op;
    # the bad ones read 3,400 and more.  The tree's path shifts the heap, so
    # the op also runs from a copy at another location.
    script = _load("bench_pairs")
    for name in [n for n in os.environ if n.startswith("MALLOC_")]:
        monkeypatch.delenv(name)
    root = SCRIPTS.parent
    for part in ("src", "configs"):
        shutil.copytree(root / part, tmp_path / part,
                        ignore=shutil.ignore_patterns("__pycache__"))
    for tree in (root, tmp_path):
        _, stdout, _ = script._child(tree, [
            "-c", script._FLAGSHIP_LOOP, "65536", "1", "5"])
        assert json.loads(stdout)["minflt"] < 2000, tree
