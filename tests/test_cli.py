import json
import os
import resource
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import rcam_sim
from rcam_sim import cli
from rcam_sim.cli import main
from rcam_sim.rcu import RcamArray


# Address space of a fresh CLI process: a refusal that regresses into a huge
# allocation then fails with MemoryError instead of exhausting the host.
_FRESH_CLI_BYTES = 1 << 30


def _cap_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (_FRESH_CLI_BYTES, _FRESH_CLI_BYTES))


def _fresh_cli(argv) -> subprocess.CompletedProcess:
    """``rcam-sim argv`` in a new interpreter, with this rcam_sim first."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(Path(rcam_sim.__file__).parents[1]),
         os.environ.get("PYTHONPATH", "")])}
    return subprocess.run([sys.executable, "-m", "rcam_sim.cli", *argv],
                          capture_output=True, text=True, env=env, timeout=60,
                          preexec_fn=_cap_address_space)


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


def test_run_derives_config_defaults_after_the_flags(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"depth_n": 1024, "word_width_w": 8,
                               "architectures": ["s3"], "key_count": 16,
                               "bus_mode": "calibrated"}))
    out = tmp_path / "r.json"
    # 1024x8 allows s3 one partition, 1024x64 all eight
    assert main(["run", "--config", str(cfg), "--width", "64",
                 "--bus", "ideal", "--out", str(out)]) == 0
    parsed = json.loads(out.read_text())
    assert parsed["results"][0]["geometry"]["partitions_p"] == 8
    assert parsed["config"]["partitions_p"] == 8
    # the ideal bus was simulated, so no calibrated knob is printed
    assert parsed["config"]["stream_efficiency"] is None
    assert parsed["config"]["burst_overhead_cycles"] is None


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


def test_run_no_verify_still_checks_the_payload_file(tmp_path, capsys):
    short = tmp_path / "short.bin"
    short.write_bytes(bytes(1023))  # 1024x8 needs 1,024 bytes
    rc = main(["run", "--arch", "s2", "--depth", "1024", "--width", "8",
               "--no-verify", "--payload", str(short)])
    assert rc == 1
    assert "payload file too short" in capsys.readouterr().err


@pytest.mark.parametrize("flags", [
    ["run", "--arch", "s3", "--width", "0"],
    ["run", "--bus-width", "0"],
    ["sweep", "--bus-width", "0"],
    ["sweep", "--clock", "0"],
], ids=["s3-zero-width", "zero-bus-width", "sweep-zero-bus-width",
        "sweep-zero-clock"])
def test_zero_sizes_are_rejected(capsys, flags):
    assert main(flags) == 1
    assert capsys.readouterr().err.startswith("error: ")


def test_run_calibrated_bus_flags(tmp_path):
    out = tmp_path / "r.json"
    rc = main(["run", "--arch", "s2", "--depth", "1024", "--width", "8",
               "--bus", "calibrated", "--eta", "0.9", "--burst-overhead", "1.0",
               "--keys", "16", "--out", str(out)])
    assert rc == 0
    parsed = json.loads(out.read_text())
    assert parsed["bus"]["stream_efficiency"] == 0.9


def test_run_reports_the_simulated_burst_overhead(tmp_path):
    # 1.905 runs as 1.90 (20,275 cycles) and 0.9764 as 0.976; the report's
    # config and bus sections both say so
    out = tmp_path / "r.json"
    rc = main(["run", "--arch", "s1", "--depth", "8192", "--width", "64",
               "--bus", "calibrated", "--eta", "0.9764",
               "--burst-overhead", "1.905", "--no-verify", "--out", str(out)])
    assert rc == 0
    parsed = json.loads(out.read_text())
    for section in ("config", "bus"):
        assert parsed[section]["stream_efficiency"] == 0.976
        assert parsed[section]["burst_overhead_cycles"] == 1.9
    assert parsed["results"][0]["total_cycles"] == 20275


@pytest.mark.parametrize("flags", [
    ["run", "--arch", "s2", "--depth", "1024", "--eta", "0.9"],
    ["run", "--arch", "s2", "--depth", "1024", "--bus", "ideal",
     "--burst-overhead", "1.0"],
    ["sweep", "--eta", "0.9"],
    ["run", "--arch", "s2", "--depth", "1024", "--bus", "ideal",
     "--calibration", "{calibration}"],
], ids=["run-eta", "run-ideal-overhead", "sweep-eta", "ideal-calibration"])
def test_ideal_bus_rejects_knobs(tmp_path, capsys, flags):
    path = tmp_path / "cal.json"
    path.write_text(json.dumps(CALIBRATION))
    flags = [f.format(calibration=path) for f in flags]
    assert main(flags) == 1
    captured = capsys.readouterr()
    assert captured.err == (
        "error: the ideal bus takes no stream_efficiency or "
        "burst_overhead_cycles; set bus_mode to calibrated\n")
    assert captured.out == ""


@pytest.mark.parametrize("depth", ["1024", "65536"])
def test_run_rejects_partitions_that_are_not_a_power_of_two(capsys, depth):
    # the rejection does not depend on whether the table clamps P
    assert main(["run", "--arch", "s3", "--depth", depth,
                 "--partitions", "3"]) == 1
    assert capsys.readouterr().err == (
        "error: partitions_p must be a power of two\n")


def test_run_rejects_partitions_without_s3(capsys):
    # P is checked whatever is selected, so no report prints a P that
    # nothing simulates
    assert main(["run", "--arch", "s2", "--depth", "1024",
                 "--partitions", "3"]) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: partitions_p must be a power of two\n"
    assert captured.out == ""


def test_sweep_rejects_a_repeated_architecture(capsys):
    assert main(["sweep", "--archs", "s2,s2", "--keys", "0"]) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: architecture 's2' is selected twice\n"
    assert captured.out == ""


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


def _cycles_lines(capsys, argv):
    assert main(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    assert any("cycles=" in line for line in lines)
    return lines


@pytest.mark.parametrize("bus_width, depth", [(64, 1024), (128, 1024),
                                              (512, 4096)])
def test_verified_run_at_any_bus_width(capsys, bus_width, depth):
    # a verified update must take its schedule on the geometry's bus width
    argv = ["run", "--arch", "all", "--depth", str(depth), "--width", "8",
            "--bus-width", str(bus_width), "--keys", "64"]
    assert (_cycles_lines(capsys, argv)
            == _cycles_lines(capsys, argv + ["--no-verify"]))


@pytest.mark.parametrize("bus_width", [64, 128, 512])
def test_verified_sweep_at_any_bus_width(capsys, bus_width):
    argv = ["sweep", "--bus-width", str(bus_width)]
    assert (_cycles_lines(capsys, argv + ["--keys", "4"])
            == _cycles_lines(capsys, argv + ["--keys", "0"]))


def test_verify_subcommand(capsys):
    rc = main(["verify", "--iterations", "4", "--seed", "11", "--keys", "64"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "match the reference" in out


def test_verify_catches_a_cam_that_never_matches(monkeypatch, capsys):
    # Half of verify's keys come from the table, so every width sees hits;
    # uniform 32- and 64-bit keys would miss both CAMs and pass.
    def never_match(self, keys):
        g = self.geometry
        return np.zeros((g.rcb_count * g.words_per_beat_k, len(keys)),
                        dtype=np.uint32)

    monkeypatch.setattr(RcamArray, "match_masks", never_match)
    assert main(["verify", "--iterations", "24", "--seed", "1"]) == 2
    lines = capsys.readouterr().out.splitlines()
    assert sum("DIVERGED" in line for line in lines) == 24
    assert lines[-1] == "24 of 24 iterations diverged"


@pytest.mark.parametrize("flags, message", [
    (["--seed", "-1"], "seed must be a 64-bit unsigned value"),
    (["--seed", str(2 ** 64)], "seed must be a 64-bit unsigned value"),
    (["--iterations", "-3"], "iterations must be >= 0"),
    (["--keys", "-5"], "keys must be >= 0"),
], ids=["negative-seed", "seed-2**64", "negative-iterations", "negative-keys"])
def test_verify_rejects_out_of_range_inputs(capsys, flags, message):
    assert main(["verify", *flags]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n"
    assert captured.out == ""


@pytest.mark.parametrize("argv, message", [
    (["run", "--arch", "s2", "--depth", "1024", "--width", "8",
      "--keys", "1000000000000000"], "key_count must be in [0, 1048576]"),
    (["sweep", "--keys", "1048577"], "key_count must be in [0, 1048576]"),
    (["verify", "--keys", "1000000000000000"], "keys must be <= 1048576"),
], ids=["run-keys", "sweep-keys", "verify-keys"])
def test_huge_key_counts_are_refused_before_allocating(argv, message):
    # a fresh process, so that a traceback would reach stderr
    done = _fresh_cli(argv)
    assert done.returncode == 1
    assert done.stderr == f"error: {message}\n"
    assert "Traceback" not in done.stdout + done.stderr


@pytest.mark.parametrize("arch", ["s2", "all"])
def test_huge_tables_are_refused_before_allocating(arch):
    # a fresh process, so that numpy's allocation traceback would show
    done = _fresh_cli(["run", "--arch", arch, "--depth", str(1 << 40),
                       "--width", "8"])
    assert done.returncode == 1
    assert done.stderr == "error: depth_n must be in [1, 1048576]\n"
    assert done.stdout == ""


@pytest.mark.parametrize("arch,flags,cycles", [
    ("s1", ["--burst-overhead", "1e6"], 32770097152),
    ("s2", ["--eta", "0.001"], 32800768),
], ids=["s1-overhead", "s2-eta"])
def test_traces_too_long_to_hold_are_refused(tmp_path, arch, flags, cycles):
    # a trace holds a few bytes per cycle; this one would need gigabytes
    trace = tmp_path / "trace.jsonl"
    done = _fresh_cli(["run", "--arch", arch, "--depth", "1048576",
                       "--width", "8", "--bus", "calibrated", *flags,
                       "--no-verify", "--trace", str(trace)])
    assert done.returncode == 1
    assert done.stderr == ("error: a traced update may take at most 8388608 "
                           f"cycles; this one takes {cycles}\n")
    assert done.stdout == ""
    assert not trace.exists()


def test_a_refused_trace_writes_no_trace_of_any_architecture(tmp_path):
    # s1's trace fits the bound and s2's does not: s1's must not be written
    done = _fresh_cli(["run", "--arch", "all", "--depth", "524288",
                       "--width", "8", "--bus", "calibrated", "--eta", "0.001",
                       "--no-verify", "--trace",
                       str(tmp_path / "t_{arch}.jsonl")])
    assert done.returncode == 1
    assert done.stderr == ("error: a traced update may take at most 8388608 "
                           "cycles; this one takes 16400384\n")
    assert done.stdout == ""
    assert list(tmp_path.iterdir()) == []


@pytest.mark.skipif(not Path("/dev/zero").exists(), reason="no /dev/zero")
def test_an_endless_payload_file_is_refused():
    # a fresh, capped process: reading the whole file would never end
    done = _fresh_cli(["run", "--arch", "s2", "--depth", "1024", "--width",
                       "8", "--no-verify", "--payload", "/dev/zero"])
    assert done.returncode == 1
    assert done.stderr == "error: payload file too long: more than 1024 bytes\n"
    assert done.stdout == ""


_OVERHEAD_BOUND = "burst_overhead_cycles must lie in [0, 1e+06]"
_CLOCK_BOUND = "clock must be positive and finite"


@pytest.mark.parametrize("flags,config,message", [
    (["--burst-overhead", "1e300"], None, _OVERHEAD_BOUND),
    (["--burst-overhead", "inf"], None, _OVERHEAD_BOUND),
    (["--burst-overhead", "nan"], None, _OVERHEAD_BOUND),
    # would wrap the int64 stall sums
    (["--burst-overhead", "1e15"], None, _OVERHEAD_BOUND),
    ([], '{"burst_overhead_cycles": Infinity}', _OVERHEAD_BOUND),
    (["--clock", "inf"], None, _CLOCK_BOUND),
    (["--clock", "nan"], None, _CLOCK_BOUND),
    (["--clock", "1e303"], None, _CLOCK_BOUND),  # infinite in Hz
    ([], '{"clock_mhz": NaN}', _CLOCK_BOUND),
])
def test_unbounded_bus_knobs_are_refused(tmp_path, flags, config, message):
    # a fresh process, so that an overflow traceback would show
    argv = ["run", "--arch", "s1", "--bus", "calibrated", "--depth", "1024",
            *flags]
    if config is not None:
        (tmp_path / "config.json").write_text(config)
        argv += ["--config", str(tmp_path / "config.json")]
    done = _fresh_cli(argv)
    assert done.returncode == 1
    assert done.stderr == f"error: {message}\n"
    assert done.stdout == ""


def test_huge_tables_make_no_payload(monkeypatch, capsys):
    from rcam_sim import experiment

    def no_payload(*args):
        raise AssertionError("a payload was made for a refused table")

    monkeypatch.setattr(experiment, "generate_payload", no_payload)
    assert main(["run", "--arch", "s2", "--depth", str(1 << 40),
                 "--width", "8"]) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: depth_n must be in [1, 1048576]\n"
    assert captured.out == ""


def test_verify_draws_each_iteration_on_its_own(monkeypatch, capsys):
    # 10^15 iterations start at once: nothing is drawn for all of them
    class Stop(Exception):
        pass

    calls = []
    geometry_for = cli.geometry_for

    def stop_at_the_second(*args):
        calls.append(args)
        if len(calls) > 1:
            raise Stop
        return geometry_for(*args)

    monkeypatch.setattr(cli, "geometry_for", stop_at_the_second)
    with pytest.raises(Stop):
        main(["verify", "--iterations", str(10 ** 15), "--seed", "1",
              "--keys", "16"])
    line = capsys.readouterr().out.splitlines()[0]
    assert line.startswith(f"[  1/{10 ** 15}]") and line.endswith(": ok")


@pytest.mark.parametrize("config, message", [
    ({"depth_n": "abc"}, "config key 'depth_n' must be int, got 'abc'"),
    ({"key_count": None}, "config key 'key_count' must be int, got None"),
], ids=["string-depth", "null-key-count"])
def test_run_rejects_malformed_config_file(tmp_path, capsys, config, message):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    assert main(["run", "--config", str(path)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


CALIBRATION = {"stream_efficiency": 0.976, "burst_overhead_cycles": 1.9,
               "simulated": {}, "targets": {}, "residuals": {},
               "max_residual": 0.0}


@pytest.mark.parametrize("content, message", [
    ({k: v for k, v in CALIBRATION.items() if k != "burst_overhead_cycles"},
     "calibration file lacks the key 'burst_overhead_cycles'"),
    ([0.976, 1.9], "calibration file must hold a single JSON object"),
    ({**CALIBRATION, "simulated": 5},
     "malformed calibration file: 'int' object is not iterable"),
    ({**CALIBRATION, "stream_efficiency": "fast"},
     "config key 'stream_efficiency' must be float | None, got 'fast'"),
], ids=["missing-key", "json-list", "bad-residual-table", "string-eta"])
def test_run_rejects_malformed_calibration_file(tmp_path, capsys, content,
                                                message):
    path = tmp_path / "cal.json"
    path.write_text(json.dumps(content))
    assert main(["run", "--arch", "s2", "--depth", "1024",
                 "--calibration", str(path)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


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


def test_run_trace_path_without_arch_takes_one_architecture(tmp_path, capsys):
    trace = tmp_path / "t.jsonl"
    flags = ["run", "--depth", "1024", "--width", "8", "--no-verify",
             "--trace", str(trace)]
    assert main(flags) == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert not trace.exists()
    assert main(flags + ["--arch", "s2"]) == 0
    summary = json.loads(trace.read_text().splitlines()[0])
    assert summary["architecture"] == "s2"
