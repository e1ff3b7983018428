"""The columnar event record against the per-event list and writer it replaced.

``_old_events`` builds the event list by a plain Python sort on (cycle,
kind rank), and ``_old_jsonl`` writes it with one ``json.dumps`` per event.
Both see the same schedule arrays as ``engines.timing``, captured from
``engines._events``.
"""

import json
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rcam_sim import engines
from rcam_sim.bus import calibrated_bus, ideal_bus
from rcam_sim.calibration import (DEFAULT_CALIBRATED_ETA,
                                  DEFAULT_CALIBRATED_OVERHEAD)
from rcam_sim.engines import EventColumns, UpdateTrace, timing
from rcam_sim.geometry import ARCHITECTURES, geometry_for

from cam_helpers import event_tuples


def _old_events(order, total, beats, erases, writes):
    busy = set(erases.tolist()) | set(writes.tolist())
    by_kind = {"beat": beats.tolist(), "erase": erases.tolist(),
               "write": writes.tolist(),
               "stall": [c for c in range(total) if c not in busy]}
    events = [(cycle, rank, (cycle, kind, None if kind == "stall" else i))
              for rank, kind in enumerate(order)
              for i, cycle in enumerate(by_kind[kind.removesuffix("_row")])]
    return [ev for *_, ev in sorted(events, key=lambda e: e[:2])]


def _old_jsonl(trace, events):
    lines = [json.dumps({"kind": "trace_summary", **trace.summary()})]
    for cycle, kind, arg in events:
        rec = {"cycle": int(cycle), "kind": kind}
        name = engines._EVENT_ARG_NAME[kind]
        if name is not None:
            rec[name] = int(arg)
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


def _traced_timing(*args):
    """``timing(*args, record_events=True)`` and the old event list of its
    schedule."""
    schedules = []

    def spy(*schedule):
        schedules.append(schedule)
        return real(*schedule)

    real = engines._events
    with mock.patch.object(engines, "_events", spy):
        trace = timing(*args, record_events=True)
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
    trace, old = _traced_timing(g, bus, prefetch and arch == "s1")
    assert len(trace.events) == len(old)
    _check_equal(event_tuples(trace.events), old)
    _check_equal(trace.to_jsonl().split("\n"),
                 _old_jsonl(trace, old).split("\n"))


@pytest.mark.parametrize("arch", ARCHITECTURES)
def test_without_events_the_trace_is_its_summary_line(arch):
    g = geometry_for(arch, 2048, 8)
    trace = timing(g)
    assert trace.events is None
    assert trace.to_jsonl() == _old_jsonl(trace, ())
    assert trace.to_jsonl().count("\n") == 1


def test_columns_are_read_only():
    g = geometry_for("s2", 1024, 8)
    trace = timing(g, record_events=True)
    for column in (trace.events.cycles, trace.events.ranks, trace.events.args):
        with pytest.raises(ValueError):
            column[0] = 1


@pytest.mark.parametrize("arch", ARCHITECTURES)
@pytest.mark.parametrize("calibrated", [False, True],
                         ids=["ideal", "calibrated"])
def test_flagship_traces_give_the_old_bytes(arch, calibrated):
    g = geometry_for(arch, 65536, 8)
    bus = (calibrated_bus(DEFAULT_CALIBRATED_ETA, DEFAULT_CALIBRATED_OVERHEAD)
           if calibrated else ideal_bus())
    trace, old = _traced_timing(g, bus)
    _check_equal(trace.to_jsonl().split("\n"),
                 _old_jsonl(trace, old).split("\n"))


# Both sides of every decimal-width step up to int64's largest value, and
# both sides of 2**32.
_BOUNDARIES = sorted({0, *(10 ** k + d for k in range(1, 19) for d in (-1, 0)),
                      2 ** 32 - 1, 2 ** 32, 2 ** 32 + 1, 2 ** 63 - 1})


def _hand_trace(arch, events):
    order = engines._EVENT_ORDER[arch]
    cycles, ranks, args = np.array(events, dtype=np.int64).reshape(-1, 3).T
    return UpdateTrace(
        architecture=arch, depth_n=1024, word_width_w=8, total_cycles=1,
        bus_read_cycles=0, stall_cycles=0, erase_span=(0, 0),
        write_span=(0, 0), events=EventColumns(order, cycles, ranks, args))


@pytest.mark.parametrize("arch", ARCHITECTURES)
@pytest.mark.parametrize("left_out", [None, 0, 2], ids=["all", "no0", "no2"])
def test_every_digit_width_gives_the_old_bytes(arch, left_out):
    """Cycles and arguments at each decimal boundary, paired both ways,
    with stalls mixed in and, but for "all", one kind left out."""
    order = engines._EVENT_ORDER[arch]
    ranks = [r for r in range(len(order)) if r != left_out]
    n = len(_BOUNDARIES)
    events = [(cycle, ranks[(i + j) % len(ranks)], arg)
              for i, cycle in enumerate(_BOUNDARIES)
              for j, arg in enumerate((_BOUNDARIES[i], _BOUNDARIES[-1 - i],
                                       _BOUNDARIES[(i + n // 2) % n], 0))]
    trace = _hand_trace(arch, events)
    old = [(c, order[r], None if order[r] == "stall" else a)
           for c, r, a in events]
    assert "stall" in {kind for _, kind, _ in old}
    _check_equal(trace.to_jsonl().split("\n"),
                 _old_jsonl(trace, old).split("\n"))


@pytest.mark.parametrize("arch", ARCHITECTURES)
def test_no_events_write_only_the_summary_line(arch):
    trace = _hand_trace(arch, [])
    assert len(trace.events) == 0
    assert trace.events.to_jsonl() == ""
    assert trace.to_jsonl() == _old_jsonl(trace, ())
    assert trace.to_jsonl().count("\n") == 1
