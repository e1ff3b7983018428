"""The schedules of ``engines.timing`` against a naive per-cycle stepper."""

import pytest

from rcam_sim.bus import calibrated_bus, ideal_bus
from rcam_sim.engines import timing
from rcam_sim.geometry import geometry_for

from cam_helpers import event_tuples
from cycle_stepper import step

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
    g = geometry_for(arch, depth, width, bus_width)
    ideal = ideal_bus(bus_width)
    bus = ideal if knobs is None else calibrated_bus(*knobs, bus_width)
    trace = timing(g, bus, prefetch, record_events=True)
    stepped = step(g, bus, prefetch)
    expected = {**stepped, "stall_cycles": stepped["total_cycles"]
                - step(g, ideal, prefetch)["total_cycles"]}
    assert trace.summary() == {k: list(v) if k.endswith("_span") else v
                               for k, v in expected.items() if k != "events"}
    assert event_tuples(trace.events) == stepped["events"]


def test_the_stepper_gives_the_reported_figures():
    stepped = {a: step(geometry_for(a, 4096, 8), ideal_bus())
               for a in ("s1", "s2", "s3")}
    assert [s["total_cycles"] for s in stepped.values()] == [8192, 256, 129]
    # P = 4 and G = 32 groups: group j is ready in cycle 4(j+1), so the
    # writes from cycle 32 on keep pace up to j = 9 and wait at j = 10
    assert stepped["s3"]["catch_up_cycles"] == 11
