"""The schedules of ``engines.timing`` against a naive per-cycle stepper."""

import pytest

from rcam_sim.bus import calibrated_bus, ideal_bus
from rcam_sim.engines import timing
from rcam_sim.geometry import geometry_for

from cam_helpers import event_tuples
from cycle_stepper import step, stepped_summary

# (depth, width, bus width): s3 gets P = 1, 4, 4, 8 and 8 here
TABLES = [(1024, 8, 256), (2048, 16, 256), (4096, 8, 256), (4096, 64, 256),
          (1024, 16, 64)]
# (eta, overhead); None is the ideal bus.  12.07 cycles outlast the 8
# cycles an s1 beat takes at 64-bit words, so the prefetch cannot hide them.
# At eta 0.2 the first s3 group of the last table lands after the erase pass.
KNOBS = [None, (0.976, 1.9), (0.9, 0.35), (0.2, 3.0), (0.313, 12.07)]
VARIANTS = [("s1", False), ("s1", True), ("s2", False), ("s3", False)]


@pytest.mark.parametrize("arch,prefetch", VARIANTS)
@pytest.mark.parametrize("knobs", KNOBS)
@pytest.mark.parametrize("depth,width,bus_width", TABLES)
def test_timing_matches_the_stepper(arch, prefetch, knobs, depth, width,
                                    bus_width):
    _check(geometry_for(arch, depth, width, bus_width), knobs, prefetch)


@pytest.mark.parametrize("prefetch", [False, True])
@pytest.mark.parametrize("knobs", KNOBS)
def test_a_one_beat_s1_table_matches_the_stepper(knobs, prefetch):
    # 32 8-bit words fill one 256-bit beat: one burst, so no later burst
    # for the prefetch to overlap
    _check(geometry_for("s1", 32, 8), knobs, prefetch)


def _check(g, knobs, prefetch):
    bus = (ideal_bus(g.bus_width_b) if knobs is None
           else calibrated_bus(*knobs, g.bus_width_b))
    trace = timing(g, bus, prefetch, record_events=True)
    summary, events = stepped_summary(g, bus, prefetch)
    assert trace.summary() == summary
    assert event_tuples(trace.events) == events


def test_the_stepper_gives_the_reported_figures():
    stepped = {a: step(geometry_for(a, 4096, 8), ideal_bus())
               for a in ("s1", "s2", "s3")}
    assert [s["total_cycles"] for s in stepped.values()] == [8192, 256, 129]
    # P = 4 and G = 32 groups: group j is ready in cycle 4(j+1), so the
    # writes from cycle 32 on keep pace up to j = 9 and wait at j = 10
    assert stepped["s3"]["catch_up_cycles"] == 11
