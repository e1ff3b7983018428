import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rcam_sim.bus import (ETA_RESOLUTION, MAX_BURST_OVERHEAD,
                          OVERHEAD_RESOLUTION, BusError,
                          BusModel, IDEAL_BUS,
                          StallSequence, calibrated_bus, demand_schedule,
                          stream_schedule, update_io_efficiency,
                          update_throughput_gbps)


def test_bus_validation():
    with pytest.raises(BusError):
        BusModel(stream_efficiency=0.0)
    with pytest.raises(BusError):
        BusModel(stream_efficiency=1.1)
    with pytest.raises(BusError):
        BusModel(mode="ideal", burst_overhead_cycles=1.0)
    with pytest.raises(BusError):
        BusModel(mode="turbo")
    calibrated_bus(0.9, 1.5)  # fine


@pytest.mark.parametrize("overhead", [-0.01, MAX_BURST_OVERHEAD + 0.01,
                                      float("inf"), float("nan")])
def test_burst_overhead_is_bounded(overhead):
    with pytest.raises(BusError, match="burst_overhead_cycles must lie in"):
        calibrated_bus(1.0, overhead)


def test_the_largest_burst_overhead_cannot_wrap_a_schedule():
    bus = calibrated_bus(1.0, MAX_BURST_OVERHEAD)
    beats = 1 << 20  # a MAX_DEPTH table of words as wide as the bus
    starts = demand_schedule(bus, beats, 2)
    assert int(starts[-1]) == (beats - 1) * 2 + beats * int(MAX_BURST_OVERHEAD)


@pytest.mark.parametrize("clock", [0.0, -1.0, float("inf"), float("nan"),
                                   1e303])
def test_clock_is_positive_and_finite(clock):
    with pytest.raises(BusError, match="clock must be positive and finite"):
        BusModel(clock_mhz=clock)
    assert BusModel(clock_mhz=1e302).clock_mhz == 1e302


def test_knobs_are_quantised_to_what_is_simulated():
    bus = calibrated_bus(0.9765, 1.905)
    # round(x * resolution): 976.5 -> 976, 190.49999... -> 190
    assert (bus.eta_units, bus.overhead_units) == (976, 190)
    assert bus.stream_efficiency == 0.976
    assert bus.burst_overhead_cycles == 1.9
    assert bus.describe()["burst_overhead_cycles"] == 1.9
    assert np.array_equal(stream_schedule(bus, 500),
                          stream_schedule(calibrated_bus(0.976, 0), 500))
    assert np.array_equal(StallSequence(190).take(100),
                          StallSequence(bus.overhead_units).take(100))
    assert calibrated_bus(0.976, 1.9).describe()["stream_efficiency"] == 0.976


@given(st.floats(0.0, 1.0, exclude_min=True),
       st.floats(0.0, MAX_BURST_OVERHEAD))
@example(0.0005, 0.005)  # both halves round to even: 0 and 0
@example(0.9765, 1.905)
@settings(max_examples=300)
def test_the_bus_quantises_each_knob_once(eta, overhead):
    # the integers are round(x * R), and the printed floats round(x * R) / R
    e = round(eta * ETA_RESOLUTION)
    o = round(overhead * OVERHEAD_RESOLUTION)
    if e == 0:
        with pytest.raises(BusError, match="rounds to 0"):
            calibrated_bus(eta, overhead)
        return
    bus = calibrated_bus(eta, overhead)
    assert (bus.eta_units, bus.overhead_units) == (e, o)
    assert bus.stream_efficiency == e / ETA_RESOLUTION
    assert bus.burst_overhead_cycles == o / OVERHEAD_RESOLUTION
    # a bus built from the printed floats simulates the same integers
    again = calibrated_bus(bus.stream_efficiency, bus.burst_overhead_cycles)
    assert (again.eta_units, again.overhead_units) == (e, o)


def test_eta_that_rounds_to_zero_is_rejected():
    with pytest.raises(BusError, match="rounds to 0"):
        calibrated_bus(0.0004, 0.0)
    assert calibrated_bus(0.0006, 0.0).stream_efficiency == 0.001


def test_stream_ideal_identity():
    sched = stream_schedule(IDEAL_BUS, 2048)
    assert np.array_equal(sched, np.arange(2048))


def test_stream_span_examples():
    assert int(stream_schedule(calibrated_bus(0.5, 0), 4)[-1]) + 1 == 8
    sched = stream_schedule(calibrated_bus(0.968, 0), 2048)
    assert int(sched[-1]) + 1 == 2116


def test_stream_stalls_spread_evenly():
    eta = 0.968
    sched = stream_schedule(calibrated_bus(eta, 0), 2048)
    gaps = np.diff(sched)
    assert set(gaps.tolist()) <= {1, 2}
    stall_positions = np.flatnonzero(gaps == 2)
    spacing = np.diff(stall_positions)
    # one extra cycle roughly every 1/(1-eta) = 31.25 beats
    assert spacing.min() >= 30 and spacing.max() <= 33


def test_stream_matches_credit_loop_oracle():
    # per-cycle accumulation of eta credit, in exact millesimal units
    def credit_loop(eta, count):
        out, credit, cycle = [], 0, 0
        num = round(eta * 1000)
        while len(out) < count:
            credit += num
            if credit >= 1000:
                credit -= 1000
                out.append(cycle)
            cycle += 1
        return np.array(out, dtype=np.int64)

    for eta in (0.5, 0.7, 0.905, 0.968, 0.976, 0.999):
        got = stream_schedule(calibrated_bus(eta, 0), 700)
        assert np.array_equal(got, credit_loop(eta, 700)), eta


def test_stream_monotone_and_causal():
    # no beat earlier than peak rate, at any eta: s3's erase-pass snapshot
    # rests on it, and only a traced update builds the schedule that checks
    for num in range(1, ETA_RESOLUTION + 1):
        sched = stream_schedule(calibrated_bus(num / ETA_RESOLUTION, 0), 512)
        assert np.all(np.diff(sched) >= 1), num
        assert np.all(sched >= np.arange(512)), num


def test_discrete_ideal_adds_one_cycle():
    # the request goes out one cycle before the current beat is used up and
    # the transfer takes that one cycle: an ideal bus never stalls
    starts = demand_schedule(IDEAL_BUS, 5, consume_cycles=4)
    assert starts.tolist() == [0, 4, 8, 12, 16]
    assert demand_schedule(IDEAL_BUS, 5, 4, prefetch=True).tolist() == \
        starts.tolist()


def test_discrete_serializes_back_to_back():
    # with prefetch each burst still occupies 1 + 2 cycles of bus time, so
    # short consumption leaves the bursts queued back to back
    bus = calibrated_bus(1.0, 2.0)
    assert demand_schedule(bus, 4, 1, prefetch=True).tolist() == [2, 5, 8, 11]
    # long consumption hides the latency of every burst but the first
    assert demand_schedule(bus, 4, 8, prefetch=True).tolist() == [2, 10, 18, 26]
    assert demand_schedule(bus, 4, 8).tolist() == [2, 12, 22, 32]


def test_discrete_rejects_non_monotone():
    # a consumer that takes no cycles would stack every beat on one cycle
    with pytest.raises(BusError):
        demand_schedule(IDEAL_BUS, 4, 0)
    with pytest.raises(BusError):
        demand_schedule(IDEAL_BUS, 0, 2)


def test_discrete_seeded_property():
    rng = np.random.default_rng(42)
    for _ in range(50):
        overhead = round(float(rng.uniform(0, 4)), 2)
        consume = int(rng.integers(1, 12))
        count = int(rng.integers(1, 300))
        bus = calibrated_bus(1.0, overhead)
        stalls = StallSequence(bus.overhead_units).take(count)
        plain = demand_schedule(bus, count, consume)
        assert plain[0] == stalls[0]
        assert np.array_equal(np.diff(plain), consume + stalls[1:])
        assert plain[-1] == (count - 1) * consume + stalls.sum()
        early = demand_schedule(bus, count, consume, prefetch=True)
        assert np.all(np.diff(early) >= consume)
        assert np.all(np.diff(early) > stalls[1:])  # one burst at a time
        assert np.all(early <= plain)


def test_stall_sequence_matches_an_accumulator():
    def accumulated(num, count):
        acc, stalls = 0, []
        for _ in range(count):
            stall, acc = divmod(acc + num, OVERHEAD_RESOLUTION)
            stalls.append(stall)
        return stalls

    rng = np.random.default_rng(7)
    for _ in range(200):
        num = round(round(float(rng.uniform(0, 12)), 2) * OVERHEAD_RESOLUTION)
        count = int(rng.integers(0, 400))
        assert StallSequence(num).take(count).tolist() == accumulated(
            num, count)


def test_stall_sequence_mean():
    seq = StallSequence(190)  # 1.9 cycles
    stalls = seq.take(1000)
    assert set(np.unique(stalls).tolist()) == {1, 2}
    assert stalls.sum() == 1900
    assert StallSequence(0).take(10).sum() == 0


def test_throughput_and_efficiency_formulas():
    bits = 65536 * 8
    assert update_io_efficiency(bits, 4096, IDEAL_BUS) == pytest.approx(0.5)
    assert update_throughput_gbps(bits, 4096, IDEAL_BUS) == pytest.approx(12.8)
    with pytest.raises(BusError):
        update_io_efficiency(bits, 0, IDEAL_BUS)


@given(st.floats(0.5, 1.0), st.integers(1, 300))
@example(0.6875, 258)  # float 258 / 0.688 is 375.00000000000006, not 375
@settings(max_examples=60)
def test_stream_span_formula(eta, count):
    eta = round(eta, 3)
    sched = stream_schedule(calibrated_bus(eta, 0), count)
    # ceil(count / eta), in integers at the 1/ETA_RESOLUTION grid of eta
    num = round(eta * ETA_RESOLUTION)
    assert int(sched[-1]) + 1 == -(-count * ETA_RESOLUTION // num)
