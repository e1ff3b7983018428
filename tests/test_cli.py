import json

import pytest

from rcam_sim.cli import main


def test_run_writes_json_report(tmp_path, capsys):
    out = tmp_path / "report.json"
    rc = main(["run", "--arch", "all", "--depth", "1024", "--width", "8",
               "--keys", "64", "--seed", "3", "--out", str(out)])
    assert rc == 0
    parsed = json.loads(out.read_text())
    assert len(parsed["results"]) == 3
    assert parsed["config"]["depth_n"] == 1024
    stdout = capsys.readouterr().out
    assert "io_efficiency" in stdout


def test_run_csv_format(tmp_path):
    out = tmp_path / "report.csv"
    rc = main(["run", "--arch", "s2", "--depth", "1024", "--width", "16",
               "--keys", "32", "--format", "csv", "--out", str(out)])
    assert rc == 0
    lines = out.read_text().strip().splitlines()
    assert len(lines) == 2
    assert lines[0].startswith("architecture,")


def test_run_with_config_file_and_overrides(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"depth_n": 1024, "word_width_w": 8,
                               "architectures": ["s2"], "key_count": 16}))
    out = tmp_path / "r.json"
    rc = main(["run", "--config", str(cfg), "--width", "16",
               "--out", str(out)])
    assert rc == 0
    parsed = json.loads(out.read_text())
    assert parsed["config"]["word_width_w"] == 16  # flag wins
    assert parsed["config"]["depth_n"] == 1024


def test_run_trace_flag(tmp_path):
    trace = tmp_path / "trace_{arch}.jsonl"
    rc = main(["run", "--arch", "s3", "--depth", "1024", "--width", "64",
               "--keys", "16", "--trace", str(trace)])
    assert rc == 0
    assert (tmp_path / "trace_s3.jsonl").exists()


def test_run_rejects_bad_geometry(capsys):
    rc = main(["run", "--arch", "s2", "--depth", "1000", "--width", "8"])
    assert rc == 1
    assert "error" in capsys.readouterr().err


def test_run_calibrated_bus_flags(tmp_path):
    out = tmp_path / "r.json"
    rc = main(["run", "--arch", "s2", "--depth", "1024", "--width", "8",
               "--bus", "calibrated", "--eta", "0.9", "--burst-overhead", "1.0",
               "--keys", "16", "--out", str(out)])
    assert rc == 0
    parsed = json.loads(out.read_text())
    assert parsed["bus"]["stream_efficiency"] == 0.9


def test_run_reports_the_simulated_burst_overhead(tmp_path):
    # 1.905 runs as 1.90 (20,275 cycles); the report says so
    out = tmp_path / "r.json"
    rc = main(["run", "--arch", "s1", "--depth", "8192", "--width", "64",
               "--bus", "calibrated", "--burst-overhead", "1.905",
               "--no-verify", "--out", str(out)])
    assert rc == 0
    parsed = json.loads(out.read_text())
    assert parsed["bus"]["burst_overhead_cycles"] == 1.9
    assert parsed["results"][0]["total_cycles"] == 20275


def test_run_rejects_eta_that_rounds_to_zero(capsys):
    rc = main(["run", "--arch", "s2", "--depth", "1024", "--bus", "calibrated",
               "--eta", "0.0004"])
    assert rc == 1
    err = capsys.readouterr().err
    assert "stream_efficiency 0.0004 rounds to 0" in err


def test_sweep_subcommand(tmp_path):
    out = tmp_path / "sweep.csv"
    rc = main(["sweep", "--archs", "s2,s3", "--keys", "8",
               "--format", "csv", "--out", str(out)])
    assert rc == 0
    lines = out.read_text().strip().splitlines()
    assert len(lines) == 1 + 2 * 4


def test_verify_subcommand(capsys):
    rc = main(["verify", "--iterations", "4", "--seed", "11", "--keys", "64"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "match the reference" in out


def test_calibrate_subcommand(tmp_path, capsys):
    out = tmp_path / "cal.json"
    rc = main(["calibrate", "--out", str(out)])
    assert rc == 0
    stdout = capsys.readouterr().out
    assert "residual" in stdout
    parsed = json.loads(out.read_text())
    assert parsed["stream_efficiency"] == pytest.approx(0.976, abs=0.01)

    # the calibration file feeds run and its residuals land in the report
    report_path = tmp_path / "r.json"
    rc = main(["run", "--arch", "s2", "--depth", "1024", "--width", "8",
               "--keys", "16", "--calibration", str(out),
               "--out", str(report_path)])
    assert rc == 0
    report = json.loads(report_path.read_text())
    assert report["bus"]["mode"] == "calibrated"
    assert report["bus"]["stream_efficiency"] == parsed["stream_efficiency"]
    assert report["calibration"]["residuals"] == parsed["residuals"]


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as info:
        main(["--version"])
    assert info.value.code == 0
