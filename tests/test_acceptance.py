"""Acceptance suite: one test per criterion, one PASS line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import time

import numpy as np
import pytest

from rcam_sim.bus import ideal_bus, update_io_efficiency
from rcam_sim.calibration import calibrate
from rcam_sim.engines import RcamEngine, timing
from rcam_sim.experiment import ExperimentConfig, run_experiment
from rcam_sim.geometry import geometry_for, map_word_index
from rcam_sim.oracle import ReferenceCam, equivalence_check
from rcam_sim.payload import generate_payload, splitmix64
from rcam_sim.resources import m10k_report

from cam_helpers import event_tuples, search, word_index_of

ARCHS = ("s1", "s2", "s3")
SWEEP = [(65536, 8), (32768, 16), (16384, 32), (8192, 64)]


@pytest.fixture(scope="module")
def fitted():
    return calibrate()


def _report(line: str) -> None:
    print(f"\n[acceptance] {line}")


def test_criterion_1_oracle_equivalence():
    """100 full updates + 1,000 searches per pass, every arch/width/depth."""
    started = time.time()
    passes, searches = 0, 0
    for arch in ARCHS:
        for depth in (1024, 4096):
            for width in (8, 16, 32, 64):
                geometry = geometry_for(arch, depth, width)
                engine = RcamEngine(geometry)
                reference = ReferenceCam(depth, width)
                salt = np.uint64((depth * width) ^ len(arch))
                for pass_no in range(100):
                    payload = generate_payload(pass_no + 1, geometry)
                    engine.update(payload)
                    reference.load_full(payload)
                    keys = splitmix64(
                        salt + np.arange(1000, dtype=np.uint64)
                        * np.uint64(pass_no + 1)) & np.uint64(geometry.word_mask)
                    keys[:500] = payload[(keys[:500]
                                          % np.uint64(depth)).astype(np.intp)]
                    verdict = equivalence_check(engine.cam, reference, keys)
                    assert verdict.passed, (
                        f"{arch} {depth}x{width} pass {pass_no}: "
                        f"diverged at {verdict.first_divergence}")
                    passes += 1
                    searches += verdict.keys_checked
    elapsed = time.time() - started
    assert elapsed < 60.0, f"budget exceeded: {elapsed:.1f}s"
    _report(f"criterion 1 PASS: {passes} update passes, {searches} searches, "
            f"zero divergences in {elapsed:.1f}s")


def test_criterion_2_ideal_cycle_identities():
    checked = []
    for depth, width in [(65536, 8)] + SWEEP:
        beats = depth * width // 256
        for arch in ARCHS:
            geometry = geometry_for(arch, depth, width)
            trace = timing(geometry)
            if arch == "s1":
                assert trace.total_cycles == 2 * depth
            elif arch == "s2":
                assert trace.total_cycles == 2 * beats
            else:
                assert beats <= trace.total_cycles <= beats + 2
                span = trace.erase_span[1] - trace.erase_span[0] + 1
                assert span == depth * width // (geometry.partitions_p * 256)
            checked.append((arch, depth, width, trace.total_cycles))
    flagship = {a: t for a, d, w, t in checked if (d, w) == (65536, 8)}
    assert flagship == {"s1": 131072, "s2": 4096, "s3": 2049}
    _report(f"criterion 2 PASS: cycle identities exact for {len(checked)} "
            f"(arch, geometry) pairs; flagship {flagship}")


def test_criterion_3_s3_catch_up():
    geometry = geometry_for("s3", 65536, 8)
    trace = timing(geometry)
    assert trace.catch_up_cycles in (36, 37)
    _report(f"criterion 3 PASS: flagship write backlog drains in "
            f"{trace.catch_up_cycles} cycles (36-37 accepted)")


def test_criterion_4_resource_reproduction():
    for shape in SWEEP:
        for arch in ("s2", "s3"):
            assert m10k_report(shape, arch).total_m10k == 2112
    s1 = m10k_report((65536, 8), "s1")
    assert s1.total_m10k == 4096
    saving = m10k_report((65536, 8), "s2").saving_vs_s1
    assert abs(saving - 0.484) <= 0.001
    assert s1.erase_ram_utilization == 256 / 8192
    assert abs(s1.erase_ram_utilization - 0.032) <= 0.001
    _report(f"criterion 4 PASS: 2,112 blocks on all four geometries, "
            f"flagship s1 4,096, saving {100 * saving:.2f}%, s1 erase "
            f"utilization {100 * s1.erase_ram_utilization:.3f}%")


def test_criterion_5_calibrated_efficiency(fitted):
    targets = {"s1": 0.101, "s2": 0.498, "s3": 0.968}
    for arch, eff in fitted.simulated.items():
        assert abs(eff - targets[arch]) <= 0.015, (arch, eff)
    ratio = fitted.simulated["s3"] / fitted.simulated["s1"]
    assert 9.0 <= ratio <= 10.2
    residuals = {a: f"{100 * r:.3f}%" for a, r in fitted.residuals.items()}
    print(f"\n[acceptance] calibration residuals (relative): {residuals}")
    _report(
        "criterion 5 PASS: calibrated efficiencies "
        + ", ".join(f"{a}={100 * fitted.simulated[a]:.2f}%"
                    for a in ("s1", "s2", "s3"))
        + f" (targets 10.1/49.8/96.8 within 1.5pp), s3/s1 ratio {ratio:.2f}")


def test_criterion_6_ideal_ceilings():
    effs = {}
    for depth, width in SWEEP:
        for arch in ARCHS:
            geometry = geometry_for(arch, depth, width)
            trace = timing(geometry)
            effs[(arch, width)] = update_io_efficiency(
                geometry.table_bits, trace.total_cycles, ideal_bus())
    assert effs[("s1", 64)] == 0.125  # W/(2B), exact
    for width in (8, 16, 32, 64):
        assert effs[("s2", width)] == 0.5
        assert effs[("s3", width)] >= 0.999
    for arch in ("s2", "s3"):
        vals = [effs[(arch, w)] for w in (8, 16, 32, 64)]
        assert max(vals) - min(vals) < 0.001  # width-invariant
    _report(f"criterion 6 PASS: ideal ceilings s1@64={100 * effs[('s1', 64)]:.1f}%, "
            f"s2=50.0%, s3={100 * effs[('s3', 8)]:.2f}%; s2/s3 width spread "
            f"< 0.1pp")


def test_criterion_7_invariant_suite():
    # bijection, exhaustive at the largest depth
    for arch in ARCHS:
        geometry = geometry_for(arch, 65536, 8)
        k = geometry.words_per_beat_k
        words = np.arange(65536)
        rcb, rem = np.divmod(words, 32 * k)
        j, i = np.divmod(rem, k)
        assert np.array_equal(rcb * 32 * k + j * k + i, words)
        for w in (0, 31, 32, 65535):
            assert word_index_of(geometry, *map_word_index(geometry, w)) == w

    # post-erase zero state and erase-before-write ordering
    for arch in ("s2", "s3"):
        geometry = geometry_for(arch, 2048, 16)
        engine = RcamEngine(geometry)
        engine.update(generate_payload(1, geometry))
        seen = []

        def probe(stage, eng):
            seen.append(stage)
            assert not eng.cam.cells.any()

        engine.update(generate_payload(2, geometry), probe=probe)
        assert seen == ["after_erase"]
        trace = timing(geometry, record_events=True)
        erase_by_row, write_by_row = {}, {}
        for cycle, kind, arg in event_tuples(trace.events):
            if kind == "erase_row":
                erase_by_row[arg] = cycle
            elif kind == "write_row":
                write_by_row[arg] = cycle
        assert set(erase_by_row) == set(write_by_row)
        assert all(erase_by_row[r] < write_by_row[r] for r in erase_by_row)

    # AND-law for W > 8 against the reference scan
    geometry = geometry_for("s2", 1024, 32)
    engine = RcamEngine(geometry)
    payload = generate_payload(3, geometry)
    engine.update(payload)
    for key in map(int, payload[:16]):
        acc = np.ones(1024, dtype=bool)
        for c in range(4):
            sub = (key >> (8 * c)) & 0xFF
            per_slice = engine.cam.slice_match(c, sub)
            assert np.array_equal(
                per_slice,
                ((payload >> np.uint64(8 * c)) & np.uint64(0xFF)) == sub)
            acc &= per_slice
        assert np.array_equal(search(engine.cam, key), acc)

    # determinism of traces and reports
    def one_trace():
        return timing(geometry_for("s3", 2048, 8),
                      record_events=True).to_jsonl()

    assert one_trace() == one_trace()
    config = ExperimentConfig(depth_n=1024, word_width_w=8, key_count=64)
    assert run_experiment(config).to_json() == run_experiment(config).to_json()

    _report("criterion 7 PASS: bijection (exhaustive, N=65,536), post-erase "
            "zero, erase-before-write, AND-law (W=32), deterministic traces "
            "and reports")
