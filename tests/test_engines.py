import numpy as np
import pytest

from rcam_sim.bus import calibrated_bus, ideal_bus
from rcam_sim.engines import (EngineError, RcamEngine, ideal_total_cycles,
                              timing)
from rcam_sim.geometry import ARCHITECTURES, geometry_for
from rcam_sim.oracle import ReferenceCam, equivalence_check
from rcam_sim.payload import generate_payload

from cam_helpers import column_occupancy

GRID = [(1024, 8), (1024, 64), (2048, 16), (4096, 8), (4096, 32), (8192, 64)]


def run(arch, depth, width, bus=None, record_events=False, prefetch=False):
    """The geometry and the ``timing`` trace of one update."""
    g = geometry_for(arch, depth, width)
    return g, timing(g, bus or ideal_bus(), prefetch, record_events)


# -- latency identities -------------------------------------------------------

def test_s1_two_cycles_per_word():
    _, trace = run("s1", 64, 8)
    assert trace.total_cycles == 128


def test_s1_flagship_total():
    _, trace = run("s1", 65536, 8)
    assert trace.total_cycles == 131072


@pytest.mark.parametrize("depth,width", GRID)
def test_ideal_latency_formulas(depth, width):
    beats = depth * width // 256
    _, t1 = run("s1", depth, width)
    assert t1.total_cycles == 2 * depth
    _, t2 = run("s2", depth, width)
    assert t2.total_cycles == 2 * beats
    g3, t3 = run("s3", depth, width)
    if g3.partitions_p >= 2:
        assert beats <= t3.total_cycles <= beats + 2
    assert t3.erase_span == (0, g3.erase_row_count - 1)


def test_s2_flagship_phases():
    _, trace = run("s2", 65536, 8)
    assert trace.total_cycles == 4096
    assert trace.erase_span == (0, 2047)
    assert trace.write_span == (2048, 4095)
    assert trace.bus_read_cycles == 2048


def test_s3_flagship_schedule():
    _, trace = run("s3", 65536, 8)
    assert trace.total_cycles == 2049
    assert trace.erase_span == (0, 255)  # 256-cycle erase pass
    assert trace.catch_up_cycles == 37
    assert trace.write_span[0] == 256


def test_s3_same_formula_other_width():
    _, trace = run("s3", 8192, 64)
    assert trace.total_cycles == 2049
    assert trace.catch_up_cycles == 37


def test_monotone_speedup():
    for depth, width in GRID:
        t1 = run("s1", depth, width)[1].total_cycles
        t2 = run("s2", depth, width)[1].total_cycles
        t3 = run("s3", depth, width)[1].total_cycles
        assert t3 <= t2 <= t1
        if depth * width // 256 < 2 * depth:
            assert t2 < t1


# -- functional correctness ---------------------------------------------------

@pytest.mark.parametrize("arch", ["s1", "s2", "s3"])
@pytest.mark.parametrize("width", [8, 16, 32, 64])
def test_payload_fidelity(arch, width):
    depth = 1024
    g = geometry_for(arch, depth, width)
    engine = RcamEngine(g)
    ref = ReferenceCam(depth, width)
    rng = np.random.default_rng(width)
    for round_no in range(3):
        payload = generate_payload(round_no + 1, g)
        engine.update(payload)
        ref.load_full(payload)
        keys = np.concatenate([
            payload[rng.integers(0, depth, size=250)],
            rng.integers(0, g.word_mask, size=250, dtype=np.uint64,
                         endpoint=True),
        ])
        verdict = equivalence_check(engine, ref, keys)
        assert verdict.passed, verdict.first_divergence


def test_search_before_any_write_is_empty():
    g = geometry_for("s2", 1024, 8)
    engine = RcamEngine(g)
    assert not engine.cam.search(0).any()
    assert not engine.cam.search(123).any()


def test_duplicates_match_everywhere():
    g = geometry_for("s2", 1024, 8)
    engine = RcamEngine(g)
    payload = np.arange(1024, dtype=np.uint64) % 256
    payload[10] = payload[20] = 77
    payload[77] = 0  # remove the ramp's own 77
    engine.update(payload)
    hits = np.flatnonzero(engine.cam.search(77))
    assert {10, 20} <= set(hits.tolist())
    assert set(hits.tolist()) == set(np.flatnonzero(payload == 77).tolist())


def test_consecutive_updates_same_shape():
    g = geometry_for("s2", 2048, 8)
    engine = RcamEngine(g)
    t1 = engine.update(generate_payload(11, g))
    t2 = engine.update(generate_payload(22, g))
    assert t1.summary() == t2.summary()
    assert t1.events is None and t2.events is None


# -- event-level invariants ---------------------------------------------------

def word_phase_cycles(trace, geometry):
    """(erase_cycle, write_cycle) per word, from row or word events."""
    n = geometry.depth_n
    k = geometry.words_per_beat_k
    erase = np.full(n, -1)
    write = np.full(n, -1)
    for ev in trace.events:
        if ev.kind == "erase":
            erase[ev.arg] = ev.cycle
        elif ev.kind == "write":
            write[ev.arg] = ev.cycle
        elif ev.kind == "erase_row":
            erase[ev.arg * k:(ev.arg + 1) * k] = ev.cycle
        elif ev.kind == "write_row":
            write[ev.arg * k:(ev.arg + 1) * k] = ev.cycle
    return erase, write


@pytest.mark.parametrize("arch", ["s1", "s2", "s3"])
def test_erase_precedes_write_for_every_word(arch):
    g, trace = run(arch, 1024, 16, record_events=True)
    erase, write = word_phase_cycles(trace, g)
    assert (erase >= 0).all() and (write >= 0).all()
    assert (erase < write).all()
    assert trace.erase_span[0] == erase.min() and trace.erase_span[1] == erase.max()
    assert trace.write_span[0] == write.min() and trace.write_span[1] == write.max()


def test_s3_refuses_a_beat_before_its_index(monkeypatch):
    # the erase pass snapshot is cycle-exact only if no beat lands early;
    # the check must survive python -O, so it is no assert
    g = geometry_for("s3", 2048, 8)
    engine = RcamEngine(g)
    monkeypatch.setattr("rcam_sim.engines.stream_schedule",
                        lambda bus, count: np.zeros(count, dtype=np.int64))
    with pytest.raises(EngineError, match="before the cycle of its index"):
        engine.update(generate_payload(1, g))
    with pytest.raises(EngineError, match="before the cycle of its index"):
        timing(g)
    # the schedule is refused before either pass touches the CAM
    assert not engine.cam.cells.any()


def test_s3_write_waits_for_beats_and_erase():
    g, trace = run("s3", 2048, 64, record_events=True)
    beat_cycle = {ev.arg: ev.cycle for ev in trace.events if ev.kind == "beat"}
    erase_end = trace.erase_span[1]
    p = g.partitions_p
    for ev in trace.events:
        if ev.kind == "write_row":
            group = ev.arg
            last_beat = beat_cycle[group * p + p - 1]
            assert ev.cycle > last_beat
            assert ev.cycle > erase_end


def test_s3_at_most_one_write_per_cycle():
    _, trace = run("s3", 4096, 8, record_events=True)
    cycles = [ev.cycle for ev in trace.events if ev.kind == "write_row"]
    assert len(cycles) == len(set(cycles))
    assert cycles == sorted(cycles)


@pytest.mark.parametrize("arch", ["s2", "s3"])
def test_post_erase_state_is_zero(arch):
    g = geometry_for(arch, 2048, 16)
    engine = RcamEngine(g)
    engine.update(generate_payload(5, g))  # leave real contents behind
    stages = []

    def probe(stage, eng):
        stages.append(stage)
        assert not eng.cam.cells.any()
        assert not eng.cam.search(42).any()  # probe-mode search allowed

    engine.update(generate_payload(6, g), probe=probe)
    assert stages == ["after_erase"]


def test_trace_determinism():
    a = run("s3", 2048, 8, record_events=True)[1]
    b = run("s3", 2048, 8, record_events=True)[1]
    assert a.to_jsonl() == b.to_jsonl()


@pytest.mark.parametrize("arch", ARCHITECTURES)
def test_update_returns_the_ideal_bus_timing(arch):
    # the engines model only the memory: their trace is timing(geometry)
    g = geometry_for(arch, 2048, 16)
    trace = RcamEngine(g).update(generate_payload(7, g))
    assert trace.summary() == timing(g).summary()
    assert trace.events is None
    assert timing(g, ideal_bus(), arch == "s1").events is None


def test_update_times_the_geometry_bus_width():
    g = geometry_for("s2", 1024, 8, bus_width_b=64)
    trace = RcamEngine(g).update(generate_payload(7, g))
    assert trace.summary() == timing(g, ideal_bus(64)).summary()
    assert trace.bus_read_cycles == 1024 * 8 // 64


@pytest.mark.parametrize("arch", ["s2", "s3"])
def test_only_s1_updates_a_single_word(arch):
    engine = RcamEngine(geometry_for(arch, 1024, 8))
    with pytest.raises(EngineError, match="no single-word update"):
        engine.update_word(0, 1)
    assert not engine.cam.cells.any()


# -- bus coupling -------------------------------------------------------------

def test_s1_calibrated_adds_burst_overhead_only():
    depth, width = 8192, 64
    bus = calibrated_bus(1.0, 1.9)
    _, trace = run("s1", depth, width, bus=bus)
    beats = depth * width // 256
    assert trace.total_cycles == 2 * depth + int(beats * 1.9)
    assert trace.stall_cycles == int(beats * 1.9)


def test_s1_period_example():
    # 2*(256/64) = 8 consumption cycles + 1.9 overhead = 9.9 per beat
    bus = calibrated_bus(1.0, 1.9)
    _, trace = run("s1", 8192, 64, bus=bus)
    assert trace.total_cycles / (8192 * 64 // 256) == pytest.approx(9.9, abs=0.01)


def test_s1_prefetch_hides_steady_state_overhead():
    bus = calibrated_bus(1.0, 1.9)
    _, trace = run("s1", 2048, 64, bus=bus, prefetch=True)
    # only the first burst's latency remains; every later one overlaps the
    # 8-cycle consumption of its predecessor
    assert trace.total_cycles == 2 * 2048 + 1
    assert trace.stall_cycles == 1


@pytest.mark.parametrize("arch", ["s2", "s3"])
def test_streamed_engines_wait_for_beats(arch):
    g = geometry_for(arch, 2048, 8)
    trace = timing(g, calibrated_bus(0.9, 0.0))
    assert trace.total_cycles > ideal_total_cycles(g)
    assert trace.stall_cycles == trace.total_cycles - ideal_total_cycles(g)
    # correctness unaffected by stalls
    engine = RcamEngine(g)
    payload = generate_payload(4, g)
    engine.update(payload)
    ref = ReferenceCam(2048, 8)
    ref.load_full(payload)
    assert equivalence_check(engine, ref, payload[:200]).passed


def test_calibrated_fidelity_across_archs():
    # the engines take no bus, so a calibrated run writes the same table
    for arch in ("s1", "s2", "s3"):
        g = geometry_for(arch, 1024, 32)
        engine = RcamEngine(g)
        payload = generate_payload(13, g)
        engine.update(payload)
        ref = ReferenceCam(1024, 32)
        ref.load_full(payload)
        assert equivalence_check(engine, ref, payload[:300]).passed


# -- incremental updates and bookkeeping ---------------------------------------

def test_s1_incremental_word_update():
    g = geometry_for("s1", 1024, 16)
    engine = RcamEngine(g)
    payload = generate_payload(2, g)
    engine.update(payload)
    trace = engine.update_word(100, 0xBEEF)
    assert trace.total_cycles == 2
    ref = ReferenceCam(1024, 16)
    ref.load_full(payload)
    ref.update(100, 0xBEEF)
    keys = np.array([0xBEEF, payload[100], payload[99]], dtype=np.uint64)
    assert equivalence_check(engine, ref, keys).passed
    with pytest.raises(EngineError):
        engine.update_word(5000, 1)
    with pytest.raises(EngineError):
        engine.update_word(0, 1 << 16)


def test_s1_rejects_a_probe():
    # s1 erases and writes word by word: no all-erased state exists
    g = geometry_for("s1", 1024, 8)
    engine = RcamEngine(g)
    with pytest.raises(EngineError, match="all-erased"):
        engine.update(generate_payload(1, g), probe=lambda stage, eng: None)


def test_rejects_bad_payloads_and_keys():
    g = geometry_for("s2", 1024, 8)
    engine = RcamEngine(g)
    with pytest.raises(EngineError):
        engine.update(np.zeros(100, dtype=np.uint64))
    with pytest.raises(EngineError):
        engine.update(np.full(1024, 256, dtype=np.uint64))
    with pytest.raises(ValueError, match="wider than 8 bits"):
        engine.cam.search(256)


def test_timing_rejects_what_the_engines_reject():
    with pytest.raises(EngineError, match="bus width"):
        timing(geometry_for("s2", 1024, 8), ideal_bus(bus_width_b=128))


def test_rejects_mismatched_bus_and_geometry():
    g = geometry_for("s2", 1024, 8)
    with pytest.raises(TypeError):
        RcamEngine(g, ideal_bus())  # an engine takes only a geometry


def test_skipped_erase_is_detectable():
    # deliberately violate the erase-first protocol: the stale bit yields a
    # false positive the oracle comparison pinpoints
    g = geometry_for("s2", 1024, 8)
    engine = RcamEngine(g)
    payload = generate_payload(8, g)
    engine.update(payload)
    victim, stale_key = 321, int(payload[321])
    engine.cam.apply_word(victim, 0x3C, 1)  # write without erasing
    occupancy = column_occupancy(engine.cam)
    assert occupancy.max() == 2
    ref = ReferenceCam(1024, 8)
    ref.load_full(payload)
    ref.update(victim, 0x3C)
    verdict = equivalence_check(engine, ref, np.array([stale_key], dtype=np.uint64))
    assert not verdict.passed
    assert verdict.first_divergence == (stale_key, victim)
