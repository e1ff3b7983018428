import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rcam_sim import engines, rcu
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
from rcam_sim.rcu import RcamArray

from cam_helpers import (apply_words, before_write_pass, column_occupancy,
                         event_tuples, poke_word, refuse_schedules, search)

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

def _gap_catch_up(writes: np.ndarray, groups: int) -> int:
    """The s3 catch-up read off the write schedule: the first write-side
    idle cycle at or after the write start, the moment the backlog of the
    erase pass has drained, counted from the last erase."""
    if int(writes[0]) > groups:
        caught_up = groups
    else:
        gaps = np.flatnonzero(np.diff(writes) > 1)
        caught_up = int(writes[gaps[0] if gaps.size else -1]) + 1
    return caught_up - (groups - 1)


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


@settings(max_examples=1000, deadline=None)
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
# 1000P = G*eta*1000: the first group is ready as the erase pass ends
@example((geometry_for("s3", 4096, 8), calibrated_bus(0.125, 0), False))
def test_closed_forms_match_the_schedules(point):
    # every summary field is a closed form; the schedule is the second model
    g, bus, prefetch = point
    beats, erases, writes = engines._schedule(g, bus, prefetch)
    trace = timing(g, bus, prefetch)
    total = cycle_total(g, bus, prefetch)
    assert int(writes.max()) + 1 == trace.total_cycles == total
    assert trace.bus_read_cycles == beats.size
    assert trace.erase_span == (int(erases.min()), int(erases.max()))
    assert trace.write_span == (int(writes.min()), int(writes.max()))
    assert trace.stall_cycles == total - cycle_total(
        g, ideal_bus(g.bus_width_b))
    if g.architecture == "s3":
        assert trace.catch_up_cycles == _gap_catch_up(writes,
                                                      g.erase_row_count)
    else:
        assert trace.catch_up_cycles is None


def test_closed_forms_give_the_reported_figures():
    flagship = {a: geometry_for(a, 65536, 8) for a in ARCHITECTURES}
    assert [cycle_total(g) for g in flagship.values()] == [131072, 4096, 2049]
    assert timing(flagship["s3"]).catch_up_cycles == 37
    assert timing(geometry_for("s3", 1 << 20, 8)).catch_up_cycles == 586
    # s1 at 8,192x64: 9.9 cycles a beat, or 8 with the prefetch
    g = geometry_for("s1", 8192, 64)
    assert cycle_total(g, calibrated_bus(1.0, 1.9)) == 16384 + 3891
    assert cycle_total(g, calibrated_bus(1.0, 1.9), True) == 16384 + 1


def test_timing_refuses_a_schedule_off_the_closed_form(monkeypatch):
    schedule = engines._schedule

    def moved(phase, index, *args):  # one entry a cycle late
        arrays = list(schedule(*args))
        arrays[phase] = arrays[phase].copy()
        arrays[phase][index] += 1
        return tuple(arrays)

    for phase, index in ((2, -1), (1, 0)):  # the last write, the first erase
        monkeypatch.setattr(engines, "_schedule",
                            lambda *args: moved(phase, index, *args))
        for arch in ARCHITECTURES:
            with pytest.raises(EngineError, match="closed form"):
                timing(geometry_for(arch, 2048, 16), record_events=True)


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


# -- the first update writes a clear grid -------------------------------------

@pytest.mark.parametrize("arch", ARCHITECTURES)
def test_first_update_sets_exactly_the_tables_bits(arch):
    # a fresh engine skips its erase pass; the grid must still hold exactly
    # the per-word model's bits of the table
    g = geometry_for(arch, 1024, 16)
    engine = RcamEngine(g)
    payload = generate_payload(3, g)
    engine.update(payload)
    expected = apply_words(g, np.zeros_like(engine.cam.cells),
                           enumerate(payload.tolist()), 1)
    np.testing.assert_array_equal(engine.cam.cells, expected)


@pytest.mark.parametrize("arch", ARCHITECTURES)
def test_a_failed_write_pass_leaves_the_engine_written(arch, monkeypatch):
    # a fresh engine's write pass that fails after its first block leaves
    # that block's bits behind, so the next update must run its erase pass
    g = geometry_for(arch, 8192, 16)
    monkeypatch.setattr(rcu, "_BLOCK_WORDS", g.depth_n // 2)
    apply = RcamArray._apply

    def first_block_only(self, *args):
        if self.cells.any():
            raise MemoryError("second block")
        apply(self, *args)

    engine = RcamEngine(g)
    first = generate_payload(4, g)
    monkeypatch.setattr(RcamArray, "_apply", first_block_only)
    with pytest.raises(MemoryError, match="second block"):
        engine.update(first)
    monkeypatch.setattr(RcamArray, "_apply", apply)
    assert engine.cam.cells.any()
    payload = generate_payload(5, g)
    engine.update(payload)
    assert column_occupancy(engine.cam).max() == 1
    ref = ReferenceCam(8192, 16)
    ref.load_full(payload)
    keys = np.concatenate([first[:200], payload[:200]])
    assert equivalence_check(engine.cam, ref, keys).passed


@pytest.mark.parametrize("written", [False, True], ids=["fresh", "written"])
@pytest.mark.parametrize("arch", ["s2", "s3"])
def test_a_probe_that_raises_leaves_a_usable_engine(arch, written):
    g = geometry_for(arch, 2048, 16)
    engine = RcamEngine(g)
    if written:
        engine.update(generate_payload(5, g))

    def probe(eng):
        raise RuntimeError("probe failed")

    before_write_pass(engine, probe)
    with pytest.raises(RuntimeError, match="probe failed"):
        engine.update(generate_payload(6, g))
    del engine.cam.apply_full_table  # the probe goes
    payload = generate_payload(7, g)
    engine.update(payload)
    ref = ReferenceCam(2048, 16)
    ref.load_full(payload)
    keys = np.concatenate([payload[:200], generate_payload(5, g)[:200],
                           generate_payload(6, g)[:200]])
    verdict = equivalence_check(engine.cam, ref, keys)
    assert verdict.passed, verdict.first_divergence


@pytest.mark.parametrize("arch", ARCHITECTURES)
def test_only_a_written_cam_runs_the_erase_pass(arch, monkeypatch):
    passes = []
    apply_full_table = RcamArray.apply_full_table

    def counted(self, words, bit):
        passes.append(bit)
        return apply_full_table(self, words, bit)

    monkeypatch.setattr(RcamArray, "apply_full_table", counted)
    g = geometry_for(arch, 1024, 8)
    engine = RcamEngine(g)
    engine.update(generate_payload(1, g))
    assert passes == [1]  # the write pass alone
    for seed in (2, 3):
        engine.update(generate_payload(seed, g))
    assert passes == [1, 0, 1, 0, 1]


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
    # the check must survive python -O, so it is no assert.  Only a traced
    # update builds the schedule; test_bus.py checks every stream for it
    g = geometry_for("s3", 2048, 8)
    monkeypatch.setattr("rcam_sim.engines.stream_schedule",
                        lambda bus, count: np.zeros(count, dtype=np.int64))
    with pytest.raises(EngineError, match="before the cycle of its index"):
        timing(g, record_events=True)


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
    seen = []

    def probe(eng):
        seen.append(eng.cam.cells.any())
        assert not search(eng.cam, 42).any()  # a search mid-update

    before_write_pass(engine, probe)
    engine.update(generate_payload(6, g))
    assert seen == [False]


def test_trace_determinism():
    a = run("s3", 2048, 8, record_events=True)[1]
    b = run("s3", 2048, 8, record_events=True)[1]
    assert a.to_jsonl() == b.to_jsonl()


@pytest.mark.parametrize("arch", ARCHITECTURES)
def test_update_returns_the_ideal_bus_timing(arch, monkeypatch):
    # the engines model only the memory: their trace is timing(geometry),
    # from the closed forms alone
    g = geometry_for(arch, 2048, 16)
    refuse_schedules(monkeypatch)
    trace = RcamEngine(g).update(generate_payload(7, g))
    assert trace.summary() == timing(g).summary()
    assert trace.events is None
    assert timing(g, ideal_bus(), arch == "s1").events is None


def test_update_times_the_geometry_bus_width(monkeypatch):
    g = geometry_for("s2", 1024, 8, bus_width_b=64)
    refuse_schedules(monkeypatch)
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


# -- bookkeeping --------------------------------------------------------------

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
    poke_word(engine.cam, victim, 0x3C, 1)  # write without erasing
    occupancy = column_occupancy(engine.cam)
    assert occupancy.max() == 2
    table = payload.copy()
    table[victim] = 0x3C
    ref = ReferenceCam(1024, 8)
    ref.load_full(table)
    verdict = equivalence_check(engine.cam, ref, np.array([stale_key], dtype=np.uint64))
    assert not verdict.passed
    assert verdict.first_divergence == (stale_key, victim)
