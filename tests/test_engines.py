import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rcam_sim import engines
from rcam_sim.bus import (ETA_RESOLUTION, MAX_BURST_OVERHEAD,
                          OVERHEAD_RESOLUTION, BusModel, calibrated_bus,
                          ideal_bus)
from rcam_sim.calibration import (DEFAULT_CALIBRATED_ETA,
                                  DEFAULT_CALIBRATED_OVERHEAD)
from rcam_sim.engines import EngineError, RcamEngine, cycle_total, timing
from rcam_sim.geometry import (ARCHITECTURES, MAX_DEPTH, RCU_SLOTS,
                               CamGeometry, geometry_for)
from rcam_sim.oracle import ReferenceCam, equivalence_check
from rcam_sim.payload import generate_payload

from cam_helpers import column_occupancy, event_tuples, search

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


# -- closed forms: an oracle for the schedules ---------------------------------

def _s3_catch_up(g: CamGeometry, eta_num: int) -> int:
    """The s3 catch-up length in closed form, at eta = eta_num/1000.

    Write j lands at max(G + j, ready(j)), ready(j) = ceil((j+1)P/eta)
    being the cycle after its last beat, and ready(j) - j never falls as j
    grows.  So the backlog has drained at once (length 1) when the first
    group is late, and otherwise at the first j in [1, G) with
    ready(j) - j > G (length j + 1), or after the last write (G + 1).
    """
    groups, p = g.erase_row_count, g.partitions_p
    j = np.arange(groups, dtype=np.int64)
    ready = -(-(j + 1) * p * ETA_RESOLUTION // eta_num)
    if ready[0] > groups:
        return 1
    late = np.flatnonzero(ready[1:] - j[1:] > groups)
    return int(late[0]) + 2 if late.size else groups + 1


@st.composite
def timed_points(draw):
    """(geometry, bus, prefetch): any valid table up to MAX_DEPTH words and
    any knob at its resolution, up to MAX_BURST_OVERHEAD."""
    arch = draw(st.sampled_from(ARCHITECTURES))
    width = draw(st.sampled_from([8, 16, 32, 64]))
    bus_width = width << draw(st.integers(0, 5))
    p = draw(st.sampled_from([1, 2, 4, 8, 16])) if arch == "s3" else 1
    k = 1 if arch == "s1" else p * bus_width // width  # words per cycle
    block = max(RCU_SLOTS * k, bus_width // width)
    depth = block * draw(st.integers(1, MAX_DEPTH // block))
    eta = draw(st.integers(1, ETA_RESOLUTION) | st.just(ETA_RESOLUTION))
    overhead = draw(st.integers(0, 4 * OVERHEAD_RESOLUTION) | st.integers(
        0, int(MAX_BURST_OVERHEAD) * OVERHEAD_RESOLUTION))
    bus = BusModel(bus_width, mode="calibrated",
                   stream_efficiency=eta / ETA_RESOLUTION,
                   burst_overhead_cycles=overhead / OVERHEAD_RESOLUTION)
    prefetch = arch == "s1" and draw(st.booleans())
    return CamGeometry(arch, depth, width, bus_width, p), bus, prefetch


FLAGSHIP_BUS = calibrated_bus(0.976, 1.9)


@settings(max_examples=150, deadline=None)
@given(timed_points())
@example((geometry_for("s1", 65536, 8), FLAGSHIP_BUS, False))
@example((geometry_for("s1", 65536, 8), FLAGSHIP_BUS, True))
@example((geometry_for("s1", 8192, 64), calibrated_bus(1.0, 12.07), True))
@example((geometry_for("s2", 65536, 8), FLAGSHIP_BUS, False))
@example((geometry_for("s3", 65536, 8), FLAGSHIP_BUS, False))
@example((geometry_for("s3", 65536, 8), ideal_bus(), False))
@example((geometry_for("s1", 1 << 20, 8), FLAGSHIP_BUS, True))
@example((geometry_for("s2", 1 << 20, 8), FLAGSHIP_BUS, False))
@example((geometry_for("s3", 1 << 20, 8), ideal_bus(), False))
@example((geometry_for("s3", 1 << 20, 8), calibrated_bus(0.001, 0), False))
def test_closed_forms_match_the_schedules(point):
    g, bus, prefetch = point
    writes = engines._schedule(g, bus, prefetch)[2]
    trace = timing(g, bus, prefetch)
    total = cycle_total(g, bus, prefetch)
    assert int(writes.max()) + 1 == trace.total_cycles == total
    assert trace.stall_cycles == total - cycle_total(
        g, ideal_bus(g.bus_width_b))
    if g.architecture == "s3":
        eta = round(bus.stream_efficiency * ETA_RESOLUTION)
        assert trace.catch_up_cycles == _s3_catch_up(g, eta)


def test_closed_forms_give_the_reported_figures():
    flagship = {a: geometry_for(a, 65536, 8) for a in ARCHITECTURES}
    assert [cycle_total(g) for g in flagship.values()] == [131072, 4096, 2049]
    assert _s3_catch_up(flagship["s3"], ETA_RESOLUTION) == 37
    assert _s3_catch_up(geometry_for("s3", 1 << 20, 8), ETA_RESOLUTION) == 586
    # s1 at 8,192x64: 9.9 cycles a beat, or 8 with the prefetch
    g = geometry_for("s1", 8192, 64)
    assert cycle_total(g, calibrated_bus(1.0, 1.9)) == 16384 + 3891
    assert cycle_total(g, calibrated_bus(1.0, 1.9), True) == 16384 + 1


def test_timing_refuses_a_schedule_off_the_closed_form(monkeypatch):
    schedule = engines._schedule

    def last_write_late(g, bus, prefetch):
        beats, erases, writes, catch_up = schedule(g, bus, prefetch)
        writes = writes.copy()
        writes[-1] += 1
        return beats, erases, writes, catch_up

    monkeypatch.setattr(engines, "_schedule", last_write_late)
    for arch in ARCHITECTURES:
        with pytest.raises(EngineError, match="closed form"):
            timing(geometry_for(arch, 2048, 16))


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
        verdict = equivalence_check(engine.cam, ref, keys)
        assert verdict.passed, verdict.first_divergence


def test_search_before_any_write_is_empty():
    g = geometry_for("s2", 1024, 8)
    engine = RcamEngine(g)
    assert not search(engine.cam, 0).any()
    assert not search(engine.cam, 123).any()


def test_duplicates_match_everywhere():
    g = geometry_for("s2", 1024, 8)
    engine = RcamEngine(g)
    payload = np.arange(1024, dtype=np.uint64) % 256
    payload[10] = payload[20] = 77
    payload[77] = 0  # remove the ramp's own 77
    engine.update(payload)
    hits = np.flatnonzero(search(engine.cam, 77))
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
    for cycle, kind, arg in event_tuples(trace.events):
        if kind == "erase":
            erase[arg] = cycle
        elif kind == "write":
            write[arg] = cycle
        elif kind == "erase_row":
            erase[arg * k:(arg + 1) * k] = cycle
        elif kind == "write_row":
            write[arg * k:(arg + 1) * k] = cycle
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
    events = event_tuples(trace.events)
    beat_cycle = {arg: cycle for cycle, kind, arg in events if kind == "beat"}
    erase_end = trace.erase_span[1]
    p = g.partitions_p
    for cycle, kind, group in events:
        if kind == "write_row":
            last_beat = beat_cycle[group * p + p - 1]
            assert cycle > last_beat
            assert cycle > erase_end


def test_s3_at_most_one_write_per_cycle():
    _, trace = run("s3", 4096, 8, record_events=True)
    cycles = [cycle for cycle, kind, _ in event_tuples(trace.events)
              if kind == "write_row"]
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
        assert not search(eng.cam, 42).any()  # probe-mode search allowed

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


def test_traced_updates_have_a_cycle_bound(monkeypatch):
    # events grow with the cycles, so a longer update is refused before its
    # schedule is built, and its summary stays available; a small bound
    # keeps this test small should the refusal ever fail
    g = geometry_for("s1", 1024, 8)
    monkeypatch.setattr(engines, "MAX_TRACE_CYCLES", cycle_total(g))
    assert timing(g, record_events=True).events.cycles.max() == 2047
    slow = calibrated_bus(1.0, 1.0)
    with pytest.raises(EngineError,
                       match="at most 2048 cycles; this one takes 2080"):
        timing(g, slow, record_events=True)
    assert timing(g, slow).total_cycles == 2080


def test_every_ideal_and_shipped_trace_fits_the_bound():
    assert engines.MAX_TRACE_CYCLES == 1 << 23
    shipped = (DEFAULT_CALIBRATED_ETA, DEFAULT_CALIBRATED_OVERHEAD)
    for arch in ARCHITECTURES:
        for width in (8, 16, 32, 64):
            for bus_width in (width, 64, 256, 1024):
                if bus_width % width:
                    continue
                g = geometry_for(arch, MAX_DEPTH, width, bus_width)
                for bus in (ideal_bus(bus_width),
                            calibrated_bus(*shipped, bus_width)):
                    for prefetch in {False, arch == "s1"}:
                        assert (cycle_total(g, bus, prefetch)
                                <= engines.MAX_TRACE_CYCLES)


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
    assert trace.total_cycles > cycle_total(g)
    assert trace.stall_cycles == trace.total_cycles - cycle_total(g)
    # correctness unaffected by stalls
    engine = RcamEngine(g)
    payload = generate_payload(4, g)
    engine.update(payload)
    ref = ReferenceCam(2048, 8)
    ref.load_full(payload)
    assert equivalence_check(engine.cam, ref, payload[:200]).passed


def test_calibrated_fidelity_across_archs():
    # the engines take no bus, so a calibrated run writes the same table
    for arch in ("s1", "s2", "s3"):
        g = geometry_for(arch, 1024, 32)
        engine = RcamEngine(g)
        payload = generate_payload(13, g)
        engine.update(payload)
        ref = ReferenceCam(1024, 32)
        ref.load_full(payload)
        assert equivalence_check(engine.cam, ref, payload[:300]).passed


# -- incremental updates and bookkeeping ---------------------------------------

def test_s1_incremental_word_update():
    g = geometry_for("s1", 1024, 16)
    engine = RcamEngine(g)
    payload = generate_payload(2, g)
    engine.update(payload)
    assert engine.update_word(100, 0xBEEF) is None  # timing owns traces
    table = payload.copy()
    table[100] = 0xBEEF
    ref = ReferenceCam(1024, 16)
    ref.load_full(table)
    keys = np.array([0xBEEF, payload[100], payload[99]], dtype=np.uint64)
    assert equivalence_check(engine.cam, ref, keys).passed
    with pytest.raises(EngineError):
        engine.update_word(5000, 1)
    with pytest.raises(EngineError):
        engine.update_word(0, 1 << 16)


@given(depth=st.sampled_from([1024, 2048, 4096]),
       width=st.sampled_from([8, 16, 32, 64]), data=st.data())
@settings(max_examples=40, deadline=None)
def test_single_word_updates_match_a_rebuilt_reference(depth, width, data):
    # a full update, then single-word updates mirrored in a shadow table;
    # the reference is rebuilt from the shadow with load_full
    g = geometry_for("s1", depth, width)
    engine = RcamEngine(g)
    shadow = generate_payload(data.draw(st.integers(1, 1000), "seed"), g)
    engine.update(shadow)
    index = st.integers(0, depth - 1)
    value = st.integers(0, g.word_mask) | index.map(lambda i: int(shadow[i]))
    writes = data.draw(st.lists(st.tuples(index, value), min_size=1,
                                max_size=40), "writes")
    skipped = data.draw(st.integers(0, len(writes) - 1), "write not mirrored")
    unmirrored = shadow.copy()
    for n, (i, v) in enumerate(writes):
        engine.update_word(i, v)
        shadow[i] = v
        if n != skipped:
            unmirrored[i] = v
    i = writes[skipped][0]
    keys = np.array(data.draw(st.lists(value, max_size=20), "keys")
                    + [int(shadow[i]), int(unmirrored[i])], dtype=np.uint64)
    ref = ReferenceCam(depth, width)
    ref.load_full(shadow)
    verdict = equivalence_check(engine.cam, ref, keys)
    assert verdict.passed, verdict.first_divergence
    # without one mirrored write the reference differs at that word alone,
    # unless a later write to it, or the same value, hides the skip
    ref.load_full(unmirrored)
    verdict = equivalence_check(engine.cam, ref, keys)
    assert verdict.passed == (shadow[i] == unmirrored[i])
    if not verdict.passed:
        assert verdict.first_divergence in {(int(shadow[i]), i),
                                            (int(unmirrored[i]), i)}


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
        search(engine.cam, 256)


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
    table = payload.copy()
    table[victim] = 0x3C
    ref = ReferenceCam(1024, 8)
    ref.load_full(table)
    verdict = equivalence_check(engine.cam, ref, np.array([stale_key], dtype=np.uint64))
    assert not verdict.passed
    assert verdict.first_divergence == (stale_key, victim)
