"""Cycle-accurate update engines for the three CAM architectures.

The three architectures differ only in *when* things happen.  Each engine's
``update`` is a pure schedule: three int arrays holding the cycle of every
bus beat, every erase (per word for s1, per erase-store row for s2/s3) and
every write (per word for s1, per word group for s2/s3).  One shared
function, ``_apply_update``, then does what all three share -- the erase
pass over the old table, the erase-store swap, the optional
``after_erase`` probe and the write pass -- and builds the
:class:`UpdateTrace` from the arrays:

* ``total_cycles`` is the last write cycle plus one;
* the erase and write spans are the extremes of their arrays;
* a stall is a cycle in [0, total) with neither an erase nor a write;
* events merge by a stable sort on (cycle, kind rank), the rank being a
  per-architecture intra-cycle order (``_EVENT_ORDER``).

The sorted (cycle, rank, arg) arrays are the trace's only event record:
:class:`EventColumns` reads them as a sequence of :class:`TraceEvent`
without building one, and ``UpdateTrace.to_jsonl`` formats them one kind
at a time from a ``%``-template per kind.

The erase and write passes are vectorized; they are order-equivalent to the
per-cycle semantics because each CAM column is touched exactly once per
phase.

s1 (traditional)
    One word per two cycles: read the per-unit erase RAM and clear the old
    cell, then store the new value in both erase RAM and CAM cell.  Beats are
    fetched from the bus on demand (``bus.demand_schedule``); the next burst
    request is issued one cycle before the current beat is fully consumed,
    so an ideal bus gives exactly 2N cycles and a calibrated bus adds only
    the per-burst overhead.

s2 (centralized erase RAM, bit-sliced)
    Phase E: each arriving beat is copied into its erase-RAM row while the
    old row contents (read-before-write) clear k words in the same cycle.
    Phase W: after the last erase, one row per cycle writes k new words.
    Ideal total = 2 * beats.

s3 (+ horizontal partitioning)
    The erase pass reads the old table through the P-wide port, one wide row
    per cycle, concurrently with beat arrival; a word group is written in the
    earliest cycle after the erase pass in which all its P beats have landed,
    at most one group per cycle.  Ideal total = beats + 1; the write backlog
    accumulated during the erase pass drains at a net (P-1)/P groups per
    cycle.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .bus import IDEAL_BUS, BusModel, demand_schedule, stream_schedule
from .erase_store import EraseStore
from .geometry import CamGeometry
from .rcu import RcamArray


class EngineError(ValueError):
    """Raised for payload/geometry/bus mismatches."""


class TraceEvent(NamedTuple):
    cycle: int
    kind: str  # "beat" | "erase" | "write" | "erase_row" | "write_row" | "stall"
    arg: int | None


_EVENT_ARG_NAME = {
    "beat": "beat",
    "erase": "word",
    "write": "word",
    "erase_row": "row",
    "write_row": "row",
    "stall": None,
}
# Each kind's JSONL line, as json.dumps writes {"cycle", "kind"[, arg name]}
_EVENT_TEMPLATE = {
    kind: '{"cycle": %d, "kind": "' + kind + '"'
          + (f', "{name}": %d' if name else "") + "}"
    for kind, name in _EVENT_ARG_NAME.items()}


class EventColumns:
    """One update's events as read-only columns, in event order.

    ``cycles``, ``ranks`` and ``args`` hold each event's cycle, its kind as
    an index into ``kinds`` and its beat, word or row number.  Iterating
    yields :class:`TraceEvent` tuples, with ``arg`` None for a stall.
    """

    __slots__ = ("kinds", "cycles", "ranks", "args")

    def __init__(self, kinds: tuple[str, ...], cycles: np.ndarray,
                 ranks: np.ndarray, args: np.ndarray):
        for column in (cycles, ranks, args):
            column.flags.writeable = False
        self.kinds, self.cycles, self.ranks, self.args = kinds, cycles, ranks, args

    def __len__(self) -> int:
        return self.cycles.size

    def __iter__(self):
        args = self.args.astype(object)
        args[self.ranks == self.kinds.index("stall")] = None
        return map(TraceEvent, self.cycles.tolist(),
                   np.array(self.kinds, dtype=object)[self.ranks].tolist(),
                   args.tolist())

    def jsonl_lines(self) -> list[str]:
        """Each event's line as ``json.dumps`` writes it, in event order."""
        at, text = [], []
        for rank, kind in enumerate(self.kinds):
            of_kind = np.flatnonzero(self.ranks == rank)
            columns = [self.cycles[of_kind].tolist()]
            if _EVENT_ARG_NAME[kind] is not None:
                columns.append(self.args[of_kind].tolist())
            at.append(of_kind)
            text += map(_EVENT_TEMPLATE[kind].__mod__, zip(*columns))
        lines = np.empty(len(self), dtype=object)
        lines[np.concatenate(at)] = text
        return lines.tolist()


@dataclass
class UpdateTrace:
    """Cycle-level outcome of one full-table update."""

    architecture: str
    depth_n: int
    word_width_w: int
    total_cycles: int
    bus_read_cycles: int
    stall_cycles: int  # total_cycles minus the ideal-bus total
    erase_span: tuple[int, int]
    write_span: tuple[int, int]
    catch_up_cycles: int | None = None
    events: EventColumns | None = None

    def __post_init__(self) -> None:
        for first, last in (self.erase_span, self.write_span):
            if not (0 <= first <= last < self.total_cycles):
                raise EngineError(
                    f"span ({first}, {last}) outside [0, {self.total_cycles})")

    def summary(self) -> dict:
        return {
            "architecture": self.architecture,
            "depth_n": self.depth_n,
            "word_width_w": self.word_width_w,
            "total_cycles": self.total_cycles,
            "bus_read_cycles": self.bus_read_cycles,
            "stall_cycles": self.stall_cycles,
            "erase_span": list(self.erase_span),
            "write_span": list(self.write_span),
            "catch_up_cycles": self.catch_up_cycles,
        }

    def to_jsonl(self) -> str:
        """Line-delimited records: one summary line, then one line per event."""
        lines = [json.dumps({"kind": "trace_summary", **self.summary()})]
        if self.events:
            lines += self.events.jsonl_lines()
        return "\n".join(lines) + "\n"


def _as_payload(geometry: CamGeometry, payload) -> np.ndarray:
    arr = np.asarray(payload, dtype=np.uint64)
    if arr.ndim != 1 or arr.size != geometry.depth_n:
        raise EngineError(
            f"payload must hold {geometry.depth_n} words, got shape {arr.shape}")
    if arr.size and int(arr.max()) > geometry.word_mask:
        raise EngineError(f"payload word exceeds {geometry.word_width_w} bits")
    return arr.copy()


class _EngineBase:
    architecture = ""

    def __init__(self, geometry: CamGeometry, bus: BusModel = IDEAL_BUS,
                 record_events: bool = True):
        if geometry.architecture != self.architecture:
            raise EngineError(
                f"geometry is for {geometry.architecture!r}, engine is "
                f"{self.architecture!r}")
        if bus.bus_width_b != geometry.bus_width_b:
            raise EngineError(
                f"bus width {bus.bus_width_b} != geometry bus width "
                f"{geometry.bus_width_b}")
        self.geometry = geometry
        self.bus = bus
        self.record_events = record_events
        self.cam = RcamArray(geometry)
        self.eram = EraseStore(geometry)

    # Searches are pure reads.  They must not run while an update is in
    # flight except from a probe callback.
    def search(self, key: int) -> np.ndarray:
        self._check_key(key)
        return self.cam.search(key)

    def search_batch(self, keys) -> np.ndarray:
        return self.cam.search_batch(keys)

    def match_masks(self, keys) -> np.ndarray:
        return self.cam.match_masks(keys)

    def _check_key(self, key: int) -> None:
        if not 0 <= key <= self.geometry.word_mask:
            raise EngineError(
                f"key {key} does not fit {self.geometry.word_width_w} bits")

    def ideal_total_cycles(self) -> int:
        raise NotImplementedError

    def update(self, payload, probe: Callable | None = None) -> UpdateTrace:
        raise NotImplementedError


class S1Engine(_EngineBase):
    """Traditional design: per-unit erase RAMs, two cycles per word."""

    architecture = "s1"

    def __init__(self, geometry: CamGeometry, bus: BusModel = IDEAL_BUS,
                 record_events: bool = True, prefetch_one_beat: bool = False):
        super().__init__(geometry, bus, record_events)
        # Sensitivity knob: request the next beat when consumption of the
        # current one starts, hiding burst overhead behind the 2*(B/W)-cycle
        # consumption instead of paying it between bursts.
        self.prefetch_one_beat = prefetch_one_beat

    def ideal_total_cycles(self) -> int:
        return 2 * self.geometry.depth_n

    def update(self, payload, probe: Callable | None = None) -> UpdateTrace:
        # Erase and write interleave per word, so no all-erased state exists
        # for a probe to observe.
        if probe is not None:
            raise EngineError("s1 has no all-erased state to probe")
        g = self.geometry
        wb = g.words_per_bus_beat
        starts = demand_schedule(self.bus, g.beat_count, 2 * wb,
                                 self.prefetch_one_beat)
        # Word o of a beat is erased 2*o cycles into the beat and written
        # the cycle after.
        erases = (starts[:, None] + 2 * np.arange(wb)).ravel()
        return _apply_update(self, payload, None, starts, erases, erases + 1)

    def update_word(self, index: int, value: int) -> UpdateTrace:
        """Incremental single-word update: one erase/write pair (2 cycles)."""
        g = self.geometry
        if not 0 <= index < g.depth_n:
            raise EngineError(f"word index {index} out of range")
        if not 0 <= value <= g.word_mask:
            raise EngineError(f"value does not fit {g.word_width_w} bits")
        self.cam.apply_word(index, int(self.eram.words[index]), 0)
        self.eram.words[index] = value
        self.cam.apply_word(index, value, 1)
        events = None
        if self.record_events:
            order = _EVENT_ORDER["s1"]
            events = EventColumns(
                order, np.array([0, 1]),
                np.array([order.index("erase"), order.index("write")]),
                np.array([index, index]))
        return UpdateTrace(
            architecture="s1", depth_n=g.depth_n, word_width_w=g.word_width_w,
            total_cycles=2, bus_read_cycles=0, stall_cycles=0,
            erase_span=(0, 0), write_span=(1, 1), events=events)


class S2Engine(_EngineBase):
    """Centralized erase RAM with bit-sliced parallel writes."""

    architecture = "s2"

    def ideal_total_cycles(self) -> int:
        return 2 * self.geometry.beat_count

    def update(self, payload, probe: Callable | None = None) -> UpdateTrace:
        beats = self.geometry.beat_count
        avail = stream_schedule(self.bus, beats)
        # Phase E: beat r lands in erase-store row r while the old row clears
        # its k words the same cycle (dual-port read-before-write).  Phase W:
        # one row per cycle, starting right after the last erase.
        writes = np.arange(beats, dtype=np.int64) + (int(avail[-1]) + 1)
        return _apply_update(self, payload, probe, avail, avail, writes)


class S3Engine(_EngineBase):
    """Adds horizontal erase-RAM partitioning: erase overlaps the bus read."""

    architecture = "s3"

    def ideal_total_cycles(self) -> int:
        g = self.geometry
        if g.partitions_p == 1:
            return 2 * g.beat_count  # degenerate: no overlap possible
        return g.beat_count + 1

    def _write_schedule(self, avail: np.ndarray) -> np.ndarray:
        """Write cycle of each word group (one wide erase-RAM row)."""
        g = self.geometry
        groups = g.erase_row_count
        # Group g is ready the cycle after its last beat; never before the
        # erase pass (rows 0..groups-1 at cycles 0..groups-1) has finished.
        ready = avail[g.partitions_p - 1::g.partitions_p] + 1
        base = np.maximum(ready, groups)
        idx = np.arange(groups, dtype=np.int64)
        return np.maximum.accumulate(base - idx) + idx

    def update(self, payload, probe: Callable | None = None) -> UpdateTrace:
        g = self.geometry
        beats = g.beat_count
        groups = g.erase_row_count
        avail = stream_schedule(self.bus, beats)
        # The erase pass reads old contents only, so beat arrival never gates
        # it.  Beat b lands in row b // P no earlier than cycle b >= b // P,
        # i.e. never before that row's erase read; same-cycle collisions are
        # shielded by read-before-write, so the pre-pass snapshot is
        # cycle-exact.  A schedule that breaks this premise is refused.
        if not bool((avail >= np.arange(beats)).all()):
            raise EngineError(
                "bus schedule delivers a beat before the cycle of its index")
        writes = self._write_schedule(avail)

        # First write-side idle cycle at/after the write start: the moment
        # the backlog accumulated during the erase pass has drained.
        if int(writes[0]) > groups:
            caught_up = groups
        else:
            gaps = np.flatnonzero(np.diff(writes) > 1)
            caught_up = int(writes[gaps[0] if gaps.size else -1]) + 1
        return _apply_update(self, payload, probe, avail,
                             np.arange(groups, dtype=np.int64), writes,
                             catch_up_cycles=caught_up - (groups - 1))


# Intra-cycle event order of each architecture.  In s1 and s2 a beat lands
# before the erase it feeds.  In s3 the wide erase read happens before any
# same-cycle beat load (dual-port read-before-write); a write reads a row
# whose beats all landed in earlier cycles.  Stalls rank last everywhere.
_EVENT_ORDER = {
    "s1": ("beat", "erase", "write", "stall"),
    "s2": ("beat", "erase_row", "write_row", "stall"),
    "s3": ("erase_row", "beat", "write_row", "stall"),
}


def _apply_update(engine: _EngineBase, payload, probe: Callable | None,
                  beats: np.ndarray, erases: np.ndarray, writes: np.ndarray,
                  catch_up_cycles: int | None = None) -> UpdateTrace:
    """Run one full-table update on ``engine`` and trace it from its schedule.

    ``beats[b]`` is the arrival cycle of bus beat b; ``erases[i]`` and
    ``writes[i]`` are the cycles of erase i and write i, which handle word i
    in s1, and erase-store row i or word group i in s2 and s3.
    """
    g = engine.geometry
    payload = _as_payload(g, payload)
    engine.cam.apply_full_table(engine.eram.stored_words(), 0)  # erase pass
    engine.eram.store_words(payload)
    if probe is not None:
        probe("after_erase", engine)
    engine.cam.apply_full_table(payload, 1)  # write pass

    total = int(writes.max()) + 1
    events = None
    if engine.record_events:
        events = _events(_EVENT_ORDER[engine.architecture], total, beats,
                         erases, writes)
    return UpdateTrace(
        architecture=engine.architecture, depth_n=g.depth_n,
        word_width_w=g.word_width_w, total_cycles=total,
        bus_read_cycles=beats.size,
        stall_cycles=total - engine.ideal_total_cycles(),
        erase_span=(int(erases.min()), int(erases.max())),
        write_span=(int(writes.min()), int(writes.max())),
        catch_up_cycles=catch_up_cycles, events=events)


def _events(order: tuple[str, ...], total: int, beats: np.ndarray,
            erases: np.ndarray, writes: np.ndarray) -> EventColumns:
    """Every event of one update, sorted by (cycle, rank in ``order``).

    A stall is a cycle in [0, total) with neither an erase nor a write.
    """
    busy = np.zeros(total, dtype=bool)
    busy[erases] = True
    busy[writes] = True
    by_kind = {"beat": beats, "erase": erases, "write": writes,
               "stall": np.flatnonzero(~busy)}
    streams = [by_kind[kind.removesuffix("_row")] for kind in order]
    ranks = np.repeat(np.arange(len(order)), [s.size for s in streams])
    cycles = np.concatenate(streams)
    args = np.concatenate([np.arange(s.size) for s in streams])
    idx = np.argsort(cycles * len(order) + ranks, kind="stable")
    return EventColumns(order, cycles[idx], ranks[idx], args[idx])


_ENGINES = {"s1": S1Engine, "s2": S2Engine, "s3": S3Engine}


def build_engine(geometry: CamGeometry, bus: BusModel = IDEAL_BUS,
                 record_events: bool = True, **kwargs) -> _EngineBase:
    return _ENGINES[geometry.architecture](geometry, bus, record_events, **kwargs)
