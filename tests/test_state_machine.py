"""A randomized state machine over engines, updates, searches and buses.

Its steps build engines, update them, check that each update's erase pass
leaves a clear grid, check the CAM against a reference rebuilt with
``load_full`` from a shadow table, and time the update on new buses against
``cycle_stepper``'s naive per-cycle stepper.  A new engine is never
written, so its first update skips its erase pass.  Tables hold at most
4,096 words, because the stepper walks every cycle in Python.
"""

import numpy as np
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (RuleBasedStateMachine, initialize,
                                 precondition, rule)

from rcam_sim.bus import calibrated_bus, ideal_bus
from rcam_sim.engines import RcamEngine, timing
from rcam_sim.geometry import ARCHITECTURES, geometry_for
from rcam_sim.oracle import ReferenceCam, equivalence_check
from rcam_sim.payload import generate_payload

from cam_helpers import before_write_pass, event_tuples
from cycle_stepper import stepped_summary

GEOMETRIES = st.tuples(st.sampled_from(ARCHITECTURES),
                       st.sampled_from([1024, 2048, 4096]),
                       st.sampled_from([8, 16, 32, 64]),
                       st.sampled_from([64, 256]))
# (eta, overhead) at their resolutions; eta >= 0.1 keeps the stepper short
KNOBS = st.none() | st.tuples(st.integers(100, 1000).map(lambda e: e / 1000),
                              st.integers(0, 1300).map(lambda o: o / 100))


class EngineMachine(RuleBasedStateMachine):
    """One engine at a time.  ``shadow`` is the table the engine should
    hold, None until its first full update; ``written`` keeps every value
    the engine was given, so that the checks search for stale words too."""

    @initialize(shape=GEOMETRIES)
    def first_engine(self, shape):
        self.new_engine(shape)

    @rule(shape=GEOMETRIES)
    def new_engine(self, shape):
        self.geometry = geometry_for(*shape)
        self.engine = RcamEngine(self.geometry)
        before_write_pass(self.engine, self.cleared)
        self.shadow = None
        self.written = []

    def _values(self):
        value = st.integers(0, self.geometry.word_mask)
        return value | st.sampled_from(self.written) if self.written else value

    @rule(seed=st.integers(1, 2 ** 32), few=st.booleans(), data=st.data())
    def full_update(self, seed, few, data):
        g = self.geometry
        payload = generate_payload(seed, g)
        if few:  # a few distinct values, so that keys hit many words
            pool = data.draw(st.lists(self._values(), min_size=1, max_size=4),
                             "pool")
            payload = np.asarray(pool, dtype=np.uint64)[
                np.random.default_rng(seed).integers(0, len(pool), g.depth_n)]
        self.engine.update(payload)
        self.shadow = payload.copy()
        self.written.extend(np.unique(payload)[:8].tolist())

    @staticmethod
    def cleared(engine):
        # the erase pass leaves no bit, and a never-written grid has none
        assert not engine.cam.cells.any()

    @precondition(lambda self: self.shadow is not None)
    @rule(data=st.data())
    def check(self, data):
        g = self.geometry
        # each word sets one bit in each of its slices, so a stale word
        # shows in the count even when no key below finds it
        assert (int(np.bitwise_count(self.engine.cam.cells).sum())
                == g.depth_n * g.slices)
        sampled = data.draw(st.lists(self._values(), max_size=16), "keys")
        keys = np.array(sampled + self.written[-16:], dtype=np.uint64)
        reference = ReferenceCam(g.depth_n, g.word_width_w)
        reference.load_full(self.shadow)
        verdict = equivalence_check(self.engine.cam, reference, keys)
        assert verdict.passed, verdict.first_divergence

    @rule(knobs=KNOBS, prefetch=st.booleans())
    def change_bus(self, knobs, prefetch):
        g = self.geometry
        bus = ideal_bus(g.bus_width_b)
        if knobs is not None:
            bus = calibrated_bus(*knobs, g.bus_width_b)
        prefetch = prefetch and g.architecture == "s1"
        trace = timing(g, bus, prefetch, record_events=True)
        summary, events = stepped_summary(g, bus, prefetch)
        assert trace.summary() == summary
        assert event_tuples(trace.events) == events


TestEngineMachine = EngineMachine.TestCase
TestEngineMachine.settings = settings(max_examples=100,
                                      stateful_step_count=20, deadline=None)
