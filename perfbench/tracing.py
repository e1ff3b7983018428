"""Per-layer spans for the traced run, recorded from outside the library.

:meth:`SpanRecorder.installed` replaces each public entry point listed in
``LAYERS`` by a wrapper that records one span per call (name, start, end,
parent, op id, counters) and restores the originals on exit.  A name bound
by ``from ... import`` is wrapped where it is looked up, for example
``rcam_sim.engines.stream_schedule``, not where it is defined.

A span's self time is its duration minus the durations of its child spans;
children of one span never overlap, because every call is synchronous.
Spans marked ``memory`` also record the tracemalloc peak inside the call,
which includes numpy buffers; tracemalloc runs only while such a span is
open.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import time
import tracemalloc

import numpy as np


def _count(**fields):
    """Counter hook that reads named values off the call's args and result."""
    def hook(args, result):
        return {k: f(args, result) for k, f in fields.items()}
    return hook


# (span name, [(module[:class], attribute)], counter hook, track memory)
LAYERS = [
    ("payload.generate_payload",
     [("rcam_sim.experiment", "generate_payload"),
      ("rcam_sim.calibration", "generate_payload"),
      ("rcam_sim.cli", "generate_payload")], None, False),
    ("bus.stream_schedule", [("rcam_sim.engines", "stream_schedule")],
     None, False),
    ("bus.StallSequence.take", [("rcam_sim.bus:StallSequence", "take")],
     _count(beats=lambda a, r: int(a[1])), False),
    ("erase_store.stored_words",
     [("rcam_sim.erase_store:PerUnitEraseBank", "stored_words")], None, False),
    ("erase_store.store_words",
     [("rcam_sim.erase_store:PerUnitEraseBank", "store_words")], None, False),
    ("rcu.apply_full_table", [("rcam_sim.rcu:RcamArray", "apply_full_table")],
     _count(words=lambda a, r: int(np.size(a[1]))), False),
    ("rcu.search_batch", [("rcam_sim.rcu:RcamArray", "search_batch")],
     _count(keys=lambda a, r: int(np.size(a[1]))), True),
    ("engines.update",
     [("rcam_sim.engines:S1Engine", "update"),
      ("rcam_sim.engines:S2Engine", "update"),
      ("rcam_sim.engines:S3Engine", "update")],
     _count(events=lambda a, r: len(r.events or ())), False),
    ("engines.to_jsonl", [("rcam_sim.engines:UpdateTrace", "to_jsonl")],
     _count(bytes=lambda a, r: len(r)), False),  # JSON text is ASCII
    ("oracle.load_full", [("rcam_sim.oracle:ReferenceCam", "load_full")],
     None, False),
    ("oracle.search_batch", [("rcam_sim.oracle:ReferenceCam", "search_batch")],
     _count(pairs=lambda a, r: int(r.size),
            hits=lambda a, r: int(np.count_nonzero(r))), True),
    ("oracle.equivalence_check",
     [("rcam_sim.experiment", "equivalence_check"),
      ("rcam_sim.cli", "equivalence_check")], None, True),
    ("experiment.run_experiment", [("rcam_sim.experiment", "run_experiment")],
     None, False),
    ("experiment.to_json", [("rcam_sim.experiment:EfficiencyReport", "to_json")],
     _count(bytes=lambda a, r: len(r)), False),
    ("calibration.calibrate", [("rcam_sim.calibration", "calibrate")],
     None, False),
    ("cli.main", [("rcam_sim.cli", "main")], None, False),
]

# Counter hooks run in a span of their own, so that benchmark-side work such
# as counting the reference's matches stays out of the layers' self times.
COUNTER_SPAN = "trace.counters"


def _owner(spec: str):
    module, _, cls = spec.partition(":")
    obj = importlib.import_module(module)
    return getattr(obj, cls) if cls else obj


class SpanRecorder:
    """Keeps every span in memory; ``spans`` is a list of dicts."""

    def __init__(self):
        self.spans: list[dict] = []
        self.op_id: int | None = None
        self._open: list[dict] = []
        self._memory: list[dict] = []

    def _enter(self, name: str, memory: bool) -> dict:
        span = {"name": name, "op": self.op_id,
                "parent": self._open[-1]["id"] if self._open else None,
                "id": len(self.spans), "children_s": 0.0}
        self.spans.append(span)
        self._open.append(span)
        if memory:
            self._memory_enter(span)
        span["start"] = time.perf_counter()
        return span

    def _exit(self, span: dict) -> None:
        end = time.perf_counter()
        if "peak_base" in span:
            self._memory_exit(span)
        self._open.pop()
        span["end"] = end
        duration = end - span["start"]
        span["self_s"] = duration - span.pop("children_s")
        if self._open:
            self._open[-1]["children_s"] += duration

    def _memory_enter(self, span: dict) -> None:
        if tracemalloc.is_tracing():
            self._fold_peak()
        else:
            tracemalloc.start()
        span["peak_base"] = span["peak_bytes"] = tracemalloc.get_traced_memory()[0]
        self._memory.append(span)

    def _memory_exit(self, span: dict) -> None:
        self._fold_peak()
        self._memory.pop()
        span["peak_bytes"] -= span.pop("peak_base")
        if not self._memory:
            tracemalloc.stop()

    def _fold_peak(self) -> None:
        """Credit the peak since the last reset to every open memory span."""
        peak = tracemalloc.get_traced_memory()[1]
        for open_span in self._memory:
            open_span["peak_bytes"] = max(open_span["peak_bytes"], peak)
        tracemalloc.reset_peak()

    @contextlib.contextmanager
    def span(self, name: str, memory: bool = False):
        span = self._enter(name, memory)
        try:
            yield span
        finally:
            self._exit(span)

    def _wrap(self, name, fn, hook, memory):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name, memory) as span:
                result = fn(*args, **kwargs)
            if hook is not None:
                with self.span(COUNTER_SPAN):
                    span.update(hook(args, result))
            return result
        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Wrap every entry point in ``LAYERS``; restore them on exit."""
        saved = []
        try:
            for name, sites, hook, memory in LAYERS:
                for spec, attr in sites:
                    owner = _owner(spec)
                    fn = owner.__dict__[attr]
                    saved.append((owner, attr, fn))
                    setattr(owner, attr, self._wrap(name, fn, hook, memory))
            yield self
        finally:
            for owner, attr, fn in reversed(saved):
                setattr(owner, attr, fn)

    def op(self, op_id: int):
        """Root span of one op: its self time is the un-wrapped glue."""
        self.op_id = op_id
        return self.span("op")


# Unit of each metric that layer_metrics returns, in the same order.  What
# each layer should move if it gets faster, and where:
#   payload, erase_store, calibration  ops_per_s on calibrate
#   bus                                ops_per_s on calibrate and trace
#   rcu.apply_full_table               ops_per_s, op_cpu_ms_p50 on calibrate
#                                      (about 2% of flagship: no move there)
#   rcu.search_batch, oracle           op_ms_p50, peak_rss_mb on flagship and
#                                      verify_mixed
#   engines                            ops_per_s on trace
#   experiment                         op_ms_p50 on flagship
#   cli                                ops_per_s on verify_mixed
LAYER_UNITS = {
    "payload.generate_payload.self_ms": "ms",
    "payload.generate_payload.calls": "count",
    "bus.stream_schedule.self_ms": "ms",
    "bus.StallSequence.take.self_ms": "ms",
    "bus.StallSequence.take.beats": "count",
    "erase_store.stored_words.self_ms": "ms",
    "erase_store.store_words.self_ms": "ms",
    "rcu.apply_full_table.self_ms": "ms",
    "rcu.apply_full_table.calls": "count",
    "rcu.apply_full_table.ns_per_word": "ns",
    "rcu.search_batch.self_ms": "ms",
    "rcu.search_batch.keys": "count",
    "rcu.search_batch.peak_mb": "MB",
    "engines.update.self_ms": "ms",
    "engines.update.calls": "count",
    "engines.events.count": "count",
    "engines.to_jsonl.self_ms": "ms",
    "engines.to_jsonl.bytes": "bytes",
    "oracle.load_full.self_ms": "ms",
    "oracle.search_batch.self_ms": "ms",
    "oracle.search_batch.peak_mb": "MB",
    "oracle.equivalence_check.self_ms": "ms",
    "oracle.equivalence_check.peak_mb": "MB",
    "oracle.hit_ratio": "ratio",
    "experiment.run_experiment.self_ms": "ms",
    "experiment.to_json.self_ms": "ms",
    "experiment.to_json.bytes": "bytes",
    "calibration.calibrate.self_ms": "ms",
    "calibration.engine_updates": "count",
    "cli.main.self_ms": "ms",
}


def _has_ancestor(span: dict, name: str, by_id: dict) -> bool:
    parent = span["parent"]
    while parent is not None:
        if by_id[parent]["name"] == name:
            return True
        parent = by_id[parent]["parent"]
    return False


def layer_metrics(spans: list[dict]) -> dict:
    """Per-layer metrics of one op from that op's spans."""
    by_name: dict[str, list[dict]] = {}
    for s in spans:
        by_name.setdefault(s["name"], []).append(s)

    def self_ms(name):
        return 1e3 * sum(s["self_s"] for s in by_name.get(name, ()))

    def calls(name):
        return len(by_name.get(name, ()))

    def total(name, field):
        return sum(s.get(field, 0) for s in by_name.get(name, ()))

    def peak_mb(name):
        return max((s["peak_bytes"] for s in by_name.get(name, ())),
                   default=0) / 1e6

    words = total("rcu.apply_full_table", "words")
    pairs = total("oracle.search_batch", "pairs")
    by_id = {s["id"]: s for s in spans}
    return {
        "payload.generate_payload.self_ms": self_ms("payload.generate_payload"),
        "payload.generate_payload.calls": calls("payload.generate_payload"),
        "bus.stream_schedule.self_ms": self_ms("bus.stream_schedule"),
        "bus.StallSequence.take.self_ms": self_ms("bus.StallSequence.take"),
        "bus.StallSequence.take.beats": total("bus.StallSequence.take", "beats"),
        "erase_store.stored_words.self_ms": self_ms("erase_store.stored_words"),
        "erase_store.store_words.self_ms": self_ms("erase_store.store_words"),
        "rcu.apply_full_table.self_ms": self_ms("rcu.apply_full_table"),
        "rcu.apply_full_table.calls": calls("rcu.apply_full_table"),
        "rcu.apply_full_table.ns_per_word":
            1e6 * self_ms("rcu.apply_full_table") / words if words else 0.0,
        "rcu.search_batch.self_ms": self_ms("rcu.search_batch"),
        "rcu.search_batch.keys": total("rcu.search_batch", "keys"),
        "rcu.search_batch.peak_mb": peak_mb("rcu.search_batch"),
        "engines.update.self_ms": self_ms("engines.update"),
        "engines.update.calls": calls("engines.update"),
        "engines.events.count": total("engines.update", "events"),
        "engines.to_jsonl.self_ms": self_ms("engines.to_jsonl"),
        "engines.to_jsonl.bytes": total("engines.to_jsonl", "bytes"),
        "oracle.load_full.self_ms": self_ms("oracle.load_full"),
        "oracle.search_batch.self_ms": self_ms("oracle.search_batch"),
        "oracle.search_batch.peak_mb": peak_mb("oracle.search_batch"),
        "oracle.equivalence_check.self_ms": self_ms("oracle.equivalence_check"),
        "oracle.equivalence_check.peak_mb": peak_mb("oracle.equivalence_check"),
        "oracle.hit_ratio": total("oracle.search_batch", "hits") / pairs
                            if pairs else 0.0,
        "experiment.run_experiment.self_ms": self_ms("experiment.run_experiment"),
        "experiment.to_json.self_ms": self_ms("experiment.to_json"),
        "experiment.to_json.bytes": total("experiment.to_json", "bytes"),
        "calibration.calibrate.self_ms": self_ms("calibration.calibrate"),
        "calibration.engine_updates": sum(
            _has_ancestor(s, "calibration.calibrate", by_id)
            for s in by_name.get("engines.update", ())),
        "cli.main.self_ms": self_ms("cli.main"),
    }
