"""Smoke tests of the two experiment scripts under ``scripts/``."""

import csv
import hashlib
import importlib.util
import json
import sys
from pathlib import Path

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
