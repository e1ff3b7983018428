"""The columnar event record against the per-event list and writer it replaced.

``_old_events`` builds the event list by a plain Python sort on (cycle,
kind rank), and ``_old_jsonl`` writes it with one ``json.dumps`` per event.
Both see the same schedule arrays as the engine, captured from
``engines._events``.
"""

import json
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rcam_sim import engines
from rcam_sim.bus import calibrated_bus, ideal_bus
from rcam_sim.engines import S1Engine, TraceEvent, build_engine
from rcam_sim.geometry import ARCHITECTURES, geometry_for
from rcam_sim.payload import generate_payload


def _old_events(order, total, beats, erases, writes):
    busy = set(erases.tolist()) | set(writes.tolist())
    by_kind = {"beat": beats.tolist(), "erase": erases.tolist(),
               "write": writes.tolist(),
               "stall": [c for c in range(total) if c not in busy]}
    events = [(cycle, rank, TraceEvent(cycle, kind,
                                       None if kind == "stall" else i))
              for rank, kind in enumerate(order)
              for i, cycle in enumerate(by_kind[kind.removesuffix("_row")])]
    return [ev for *_, ev in sorted(events, key=lambda e: e[:2])]


def _old_jsonl(trace, events):
    lines = [json.dumps({"kind": "trace_summary", **trace.summary()})]
    for ev in events:
        rec = {"cycle": int(ev.cycle), "kind": ev.kind}
        name = engines._EVENT_ARG_NAME[ev.kind]
        if name is not None:
            rec[name] = int(ev.arg)
        lines.append(json.dumps(rec))
    return "\n".join(lines) + "\n"


def _check_equal(got, want):
    """Fail with the first differing item: pytest's own diff of two long
    sequences can take minutes."""
    if got != want:
        i = next((i for i, (a, b) in enumerate(zip(got, want)) if a != b),
                 min(len(got), len(want)))
        pytest.fail(f"item {i} differs: {got[i:i + 1]} != {want[i:i + 1]} "
                    f"(lengths {len(got)} and {len(want)})")


def _traced_update(engine, payload):
    """``engine.update(payload)`` and the old event list of its schedule."""
    schedules = []

    def spy(*args):
        schedules.append(args)
        return real(*args)

    real = engines._events
    with mock.patch.object(engines, "_events", spy):
        trace = engine.update(payload)
    (schedule,) = schedules
    return trace, _old_events(*schedule)


@given(arch=st.sampled_from(ARCHITECTURES),
       depth=st.sampled_from([1024, 2048, 4096]),
       width=st.sampled_from([8, 16, 32, 64]),
       bus_width=st.sampled_from([64, 256]),
       partitions=st.sampled_from([1, 2, 4, 8]),
       calibrated=st.booleans(),
       eta=st.integers(500, 1000).map(lambda m: m / 1000),
       overhead=st.integers(0, 300).map(lambda c: c / 100),
       prefetch=st.booleans())
@settings(max_examples=60, deadline=None)
def test_columns_give_the_old_events_and_bytes(arch, depth, width, bus_width,
                                               partitions, calibrated, eta,
                                               overhead, prefetch):
    g = geometry_for(arch, depth, width, bus_width, partitions)
    bus = (calibrated_bus(eta, overhead, bus_width) if calibrated
           else ideal_bus(bus_width))
    kwargs = {"prefetch_one_beat": prefetch} if arch == "s1" else {}
    engine = build_engine(g, bus, record_events=True, **kwargs)
    trace, old = _traced_update(engine, generate_payload(5, g))
    assert len(trace.events) == len(old)
    _check_equal(list(trace.events), old)
    _check_equal(trace.to_jsonl().split("\n"),
                 _old_jsonl(trace, old).split("\n"))


def test_update_word_records_its_two_events():
    g = geometry_for("s1", 1024, 16)
    engine = S1Engine(g, record_events=True)
    engine.update(generate_payload(2, g))
    trace = engine.update_word(37, 0xBEEF)
    old = [TraceEvent(0, "erase", 37), TraceEvent(1, "write", 37)]
    assert len(trace.events) == 2
    assert list(trace.events) == old
    assert trace.to_jsonl() == _old_jsonl(trace, old)


@pytest.mark.parametrize("arch", ARCHITECTURES)
def test_without_events_the_trace_is_its_summary_line(arch):
    g = geometry_for(arch, 2048, 8)
    trace = build_engine(g, record_events=False).update(generate_payload(4, g))
    assert trace.events is None
    assert trace.to_jsonl() == _old_jsonl(trace, ())
    assert trace.to_jsonl().count("\n") == 1


def test_columns_are_read_only():
    g = geometry_for("s2", 1024, 8)
    trace = build_engine(g, record_events=True).update(generate_payload(1, g))
    for column in (trace.events.cycles, trace.events.ranks, trace.events.args):
        with pytest.raises(ValueError):
            column[0] = 1
