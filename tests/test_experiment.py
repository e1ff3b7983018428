import hashlib
import json
from collections import Counter
from dataclasses import FrozenInstanceError, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rcam_sim.bus import BusError
from rcam_sim.experiment import (MAX_KEY_COUNT, ConfigError, ExperimentConfig,
                                 OracleDivergenceError, emit_report,
                                 load_config, report_csv, run_experiment,
                                 run_sweep)
from rcam_sim.geometry import GeometryError, geometry_for
from rcam_sim.payload import generate_payload, save_payload
from rcam_sim.rcu import RcamArray

from cam_helpers import refuse_schedules

SMALL = dict(depth_n=1024, word_width_w=8, key_count=128)


def test_config_validation():
    with pytest.raises(ConfigError):
        ExperimentConfig(architectures=("s9",))
    with pytest.raises(ConfigError):
        ExperimentConfig(bus_mode="warp")
    with pytest.raises(ConfigError):
        ExperimentConfig(key_count=-1)
    with pytest.raises(GeometryError):
        ExperimentConfig(depth_n=1000)
    with pytest.raises(GeometryError):
        ExperimentConfig(word_width_w=24)
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict({"depth_n": 1024, "wat": 1})


def test_key_count_has_a_stated_maximum():
    assert ExperimentConfig(key_count=MAX_KEY_COUNT).key_count == MAX_KEY_COUNT
    with pytest.raises(ConfigError, match="key_count must be in"):
        ExperimentConfig(key_count=MAX_KEY_COUNT + 1)


def test_config_round_trip(tmp_path):
    config = ExperimentConfig(**SMALL, architectures=("s2",), seed=9)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config.to_dict()), encoding="utf-8")
    assert load_config(path) == config


def test_config_is_frozen():
    # the bus and geometries are resolved at construction, so a field
    # assigned later would not be the one simulated
    config = ExperimentConfig(**SMALL, architectures=("s2",))
    with pytest.raises(FrozenInstanceError):
        config.word_width_w = 64


def test_ideal_run_efficiencies():
    config = ExperimentConfig(depth_n=8192, word_width_w=64, key_count=64)
    report = run_experiment(config)
    eff = {r.architecture: r.io_efficiency() for r in report.results}
    assert eff["s1"] == pytest.approx(0.125)      # W/(2B)
    assert eff["s2"] == pytest.approx(0.500)
    assert eff["s3"] >= 0.999
    assert report.ratios()["s3_over_s1_at_w64"] == pytest.approx(eff["s3"] / 0.125)
    for r in report.results:
        assert r.oracle["passed"] is True
        assert r.throughput_gbps() == pytest.approx(
            25.6 * r.io_efficiency(), rel=1e-9)


def test_report_embeds_config_and_version():
    config = ExperimentConfig(**SMALL, architectures=("s3",))
    d = run_experiment(config).to_dict()
    assert d["config"] == config.to_dict()
    assert d["schema_version"] == 1
    assert d["code_version"]
    assert d["results"][0]["resources"]["total_m10k"] > 0


def test_reports_are_byte_identical():
    config = ExperimentConfig(**SMALL)
    a = run_experiment(config).to_json()
    b = run_experiment(config).to_json()
    assert a == b


def test_json_report_round_trips_numerics(tmp_path):
    config = ExperimentConfig(**SMALL, architectures=("s2",))
    report = run_experiment(config)
    path = emit_report(report, tmp_path / "r.json", "json")
    parsed = json.loads(path.read_text())
    row = parsed["results"][0]
    assert row["total_cycles"] == report.results[0].total_cycles
    assert row["io_efficiency"] == report.results[0].io_efficiency()


def test_csv_row_count_and_reparse(tmp_path):
    report = run_sweep(ExperimentConfig(key_count=16))
    text = report_csv(report)
    lines = text.strip().splitlines()
    assert len(lines) == 1 + 3 * 4  # header + architectures x widths
    header = lines[0].split(",")
    row = dict(zip(header, lines[1].split(",")))
    match = [r for r in report.results
             if r.architecture == row["architecture"]
             and r.geometry["word_width_w"] == int(row["word_width_w"])][0]
    assert int(row["total_cycles"]) == match.total_cycles
    assert float(row["io_efficiency"]) == pytest.approx(match.io_efficiency())
    emit_report(report, tmp_path / "r.csv", "csv")
    assert (tmp_path / "r.csv").read_text() == text


def test_sweep_width_invariance_ideal():
    report = run_sweep(ExperimentConfig(architectures=("s2", "s3"),
                                        key_count=16))
    for arch in ("s2", "s3"):
        effs = [r.io_efficiency() for r in report.results
                if r.architecture == arch]
        assert max(effs) - min(effs) < 0.001


def test_payload_file_source(tmp_path):
    g = geometry_for("s2", 1024, 8)
    payload = generate_payload(42, g)
    path = tmp_path / "p.bin"
    save_payload(path, payload, g)
    config = ExperimentConfig(**SMALL, architectures=("s2",),
                              payload_path=str(path))
    report = run_experiment(config)
    assert report.results[0].oracle["passed"] is True


def test_trace_emission(tmp_path):
    config = ExperimentConfig(**SMALL, architectures=("s2", "s3"),
                              trace_path=str(tmp_path / "t_{arch}.jsonl"))
    run_experiment(config)
    for arch in ("s2", "s3"):
        lines = (tmp_path / f"t_{arch}.jsonl").read_text().splitlines()
        assert json.loads(lines[0])["kind"] == "trace_summary"
        assert json.loads(lines[1])["cycle"] == 0


def test_trace_path_alone_records_events(tmp_path):
    config = ExperimentConfig(**SMALL, architectures=("s1",),
                              verify_oracle=False,
                              trace_path=str(tmp_path / "t.jsonl"))
    assert config.record_events
    report = run_experiment(config)
    lines = (tmp_path / "t.jsonl").read_text().splitlines()
    assert len(lines) == 1 + 2 * 1024 + 1024 * 8 // 256  # summary + events
    # The embedded config prints the derived flag and round-trips.
    assert report.config["record_events"] is True
    assert ExperimentConfig.from_dict(report.config) == config
    # Without a trace path no events are recorded, whatever the key says.
    quiet = ExperimentConfig.from_dict({**report.config, "trace_path": None})
    assert not quiet.record_events


def test_empty_trace_path_is_rejected():
    # "" would build every event and write no file
    with pytest.raises(ConfigError, match="trace_path must not be empty"):
        ExperimentConfig(**SMALL, architectures=("s2",), trace_path="")
    with pytest.raises(ConfigError, match="trace_path must not be empty"):
        ExperimentConfig.from_dict({"trace_path": ""})


def test_sweep_rejects_a_trace_path(tmp_path):
    # every width would write the same files, and only the last would stay
    base = ExperimentConfig(verify_oracle=False,
                            trace_path=str(tmp_path / "t_{arch}.jsonl"))
    with pytest.raises(ConfigError, match="sweep writes no traces"):
        run_sweep(base)
    assert not list(tmp_path.iterdir())


def test_oracle_divergence_aborts(monkeypatch):
    from rcam_sim import experiment as exp

    hits = exp.ReferenceCam.hits

    def broken_hits(self, first, counts):
        words = hits(self, first, counts)
        # corrupt the reference: each run's first hit word becomes word 0
        starts = (np.cumsum(counts) - counts)[counts > 0]
        words[starts] = 0
        return words

    monkeypatch.setattr(exp.ReferenceCam, "hits", broken_hits)
    config = ExperimentConfig(**SMALL, architectures=("s2",))
    with pytest.raises(OracleDivergenceError) as info:
        run_experiment(config)
    assert info.value.divergence[1] == 0


ROOT = Path(__file__).resolve().parents[1]
# The flagship report's hash, as the benchmark fingerprint pins it.
FLAGSHIP_REPORT_SHA = json.loads(
    (ROOT / "perfbench" / "fingerprint.json").read_text(encoding="utf-8")
)["workloads"]["flagship"]["outputs"]["report.json"]


@pytest.mark.parametrize("source", ["generated", "file"])
def test_one_payload_reference_and_key_sample_per_run(tmp_path, monkeypatch,
                                                      source):
    from rcam_sim import experiment as exp

    calls = Counter()
    for owner, name in [(exp, "generate_payload"), (exp, "load_payload"),
                        (exp.ReferenceCam, "load_full"), (exp, "search_keys")]:
        def counted(*args, _fn=getattr(owner, name), _name=name):
            calls[_name] += 1
            return _fn(*args)
        monkeypatch.setattr(owner, name, counted)
    config = load_config(ROOT / "configs" / "flagship.json")
    assert config.architectures == ("s1", "s2", "s3")
    if source == "file":
        g = config.geometries["s1"]
        path = tmp_path / "flagship.bin"
        save_payload(path, generate_payload(config.seed, g), g)
        config = replace(config, payload_path=str(path))
    report = run_experiment(config).to_dict()
    loads = "generate_payload" if source == "generated" else "load_payload"
    assert calls == {loads: 1, "load_full": 1, "search_keys": 1}
    # the same bytes as the flagship report, apart from the path it embeds
    report["config"]["payload_path"] = None
    text = json.dumps(report, indent=2) + "\n"
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == (
        FLAGSHIP_REPORT_SHA)


def _drop_a_bit_in(monkeypatch, arch):
    """Make the CAM of ``arch`` miss one match; return the architectures
    whose CAMs were searched, in order."""
    searched = []
    match_masks = RcamArray.match_masks

    def dropping(self, keys):
        masks = match_masks(self, keys)
        searched.append(self.geometry.architecture)
        if self.geometry.architecture == arch:
            flat = masks.reshape(-1)
            at = np.flatnonzero(flat)[0]
            flat[at] &= flat[at] - np.uint32(1)  # clear its lowest set bit
        return masks

    monkeypatch.setattr(RcamArray, "match_masks", dropping)
    return searched


def test_the_shared_reference_still_catches_a_later_fault(monkeypatch):
    searched = _drop_a_bit_in(monkeypatch, "s3")
    with pytest.raises(OracleDivergenceError, match=r"^s3 at 1024x8") as info:
        run_experiment(ExperimentConfig(**SMALL))
    assert info.value.architecture == "s3"
    assert list(dict.fromkeys(searched)) == ["s1", "s2", "s3"]


def test_a_fault_in_s1_aborts_before_s2_runs(monkeypatch):
    searched = _drop_a_bit_in(monkeypatch, "s1")
    with pytest.raises(OracleDivergenceError, match=r"^s1 at 1024x8") as info:
        run_experiment(ExperimentConfig(**SMALL))
    assert info.value.architecture == "s1"
    assert set(searched) == {"s1"}


def test_verification_can_be_disabled():
    config = ExperimentConfig(**SMALL, architectures=("s1",),
                              verify_oracle=False)
    report = run_experiment(config)
    assert report.results[0].oracle["passed"] is None


@pytest.mark.parametrize("off", [{"verify_oracle": False}, {"key_count": 0}],
                         ids=["no-verify", "no-keys"])
def test_unverified_runs_build_no_engine(monkeypatch, off):
    from rcam_sim import experiment as exp

    def no_engine(geometry):
        raise AssertionError("an unverified run built an engine")

    monkeypatch.setattr(exp, "RcamEngine", no_engine)
    config = ExperimentConfig(**{**SMALL, **off})
    report = run_experiment(config)
    assert [r.total_cycles for r in report.results] == [2048, 64, 64]
    assert all(r.oracle["passed"] is None for r in report.results)


def test_unverified_runs_generate_no_payload(monkeypatch):
    from rcam_sim import experiment as exp

    def no_payload(seed, geometry):
        raise AssertionError("an unverified run generated a payload")

    monkeypatch.setattr(exp, "generate_payload", no_payload)
    report = run_experiment(ExperimentConfig(**SMALL, verify_oracle=False))
    assert [r.total_cycles for r in report.results] == [2048, 64, 64]


def test_only_a_traced_run_builds_a_schedule(monkeypatch, tmp_path, capsys):
    # every summary comes from the closed forms; the cycle schedule runs
    # only to record events
    from rcam_sim.cli import main

    refuse_schedules(monkeypatch)
    report = run_experiment(ExperimentConfig(**SMALL))
    assert [r.total_cycles for r in report.results] == [2048, 64, 64]
    assert all(r.oracle["passed"] for r in report.results)
    assert main(["verify", "--iterations", "3"]) == 0
    with pytest.raises(AssertionError, match="built a schedule"):
        run_experiment(ExperimentConfig(**SMALL, verify_oracle=False,
                                        trace_path=str(tmp_path / "t_{arch}")))


def test_calibrated_mode_uses_shipped_defaults():
    config = ExperimentConfig(**SMALL, bus_mode="calibrated")
    bus = config.bus()
    assert bus.mode == "calibrated"
    assert bus.stream_efficiency == pytest.approx(0.976)
    assert bus.burst_overhead_cycles == pytest.approx(1.9)
    # the report's config prints the knobs that were simulated
    report = run_experiment(config)
    assert report.config["stream_efficiency"] == report.bus[
        "stream_efficiency"] == 0.976
    assert report.config["burst_overhead_cycles"] == report.bus[
        "burst_overhead_cycles"] == 1.9
    # the ideal bus has no knobs to print
    ideal = ExperimentConfig(**SMALL)
    assert ideal.stream_efficiency is None
    assert ideal.burst_overhead_cycles is None


def test_s3_config_prints_the_simulated_partition_count():
    config = ExperimentConfig(**SMALL, architectures=("s3",))
    report = run_experiment(config)
    assert report.config["partitions_p"] == 1
    assert report.results[0].geometry["partitions_p"] == 1
    # the config keeps the request: a later, larger table gets all eight
    assert config.partitions_p == 8
    wide = run_experiment(replace(config, word_width_w=64))
    assert wide.config["partitions_p"] == 8
    assert wide.results[0].geometry["partitions_p"] == 8
    # no s3, nothing to clamp
    s2 = run_experiment(ExperimentConfig(**SMALL, architectures=("s2",)))
    assert s2.config["partitions_p"] == 8


def test_sweep_ignores_the_base_table_size():
    base = ExperimentConfig(**SMALL, architectures=("s3",))
    report = run_sweep(base)
    assert report.config["partitions_p"] == 8
    assert [r.geometry["partitions_p"] for r in report.results] == [8] * 4


def test_sweep_prints_the_simulated_partition_count():
    # 64 KB leaves s3 at most 64 partitions of a 256-bit bus
    base = ExperimentConfig(architectures=("s3",), partitions_p=128,
                            verify_oracle=False)
    report = run_sweep(base)
    assert [r.geometry["partitions_p"] for r in report.results] == [64] * 4
    assert report.config["partitions_p"] == 64


@given(archs=st.lists(st.sampled_from(["s1", "s2", "s3"]), min_size=1,
                      max_size=3, unique=True),
       depth=st.sampled_from([1000, 1024, 2048, 8192]),
       width=st.sampled_from([8, 16, 64]),
       bus_mode=st.sampled_from(["ideal", "calibrated"]),
       eta=st.none() | st.floats(0.0, 1.1),
       overhead=st.none() | st.floats(-0.5, 4.0),
       partitions=st.sampled_from([0, 1, 2, 3, 4, 8, 12, 16, 32]))
@settings(max_examples=100, deadline=None)
def test_report_prints_the_simulated_config(archs, depth, width, bus_mode,
                                            eta, overhead, partitions):
    try:
        config = ExperimentConfig(
            depth_n=depth, word_width_w=width, architectures=tuple(archs),
            bus_mode=bus_mode, stream_efficiency=eta,
            burst_overhead_cycles=overhead, partitions_p=partitions,
            key_count=0)
    except (ConfigError, GeometryError, BusError):
        return
    report = json.loads(run_experiment(config).to_json())
    printed = report["config"]
    for knob in ("stream_efficiency", "burst_overhead_cycles"):
        expected = report["bus"][knob] if bus_mode == "calibrated" else None
        assert printed[knob] == expected
    for result in report["results"]:
        if result["architecture"] == "s3":
            assert result["geometry"]["partitions_p"] == printed["partitions_p"]
    assert ExperimentConfig.from_dict(printed).to_dict() == printed
