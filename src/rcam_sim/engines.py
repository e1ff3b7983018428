"""Cycle schedules of the three CAM architectures, and their one engine.

The three architectures differ only in *when* things happen, and payload
values never change that.  :func:`timing` is the only code that turns a
bus into a trace, and every summary number comes from O(1) closed forms
of the geometry and the bus's integer knobs alone: :func:`cycle_total`
gives the total and ``_spans`` the erase and write spans and the s3
catch-up; ``stall_cycles`` is the total minus ``_cycles`` at the ideal knobs.

``_schedule`` holds every cycle schedule and runs only to record events:
from the geometry and the bus it builds the cycle of every bus beat, every
erase (per word for s1, per erase-store row for s2/s3) and every write (per
word for s1, per word group for s2/s3).  It is an independent model of the
same update, so ``timing`` refuses a schedule whose erase and write
extremes differ from the closed-form spans.  Its events follow two rules:

* a stall is a cycle in [0, total) with neither an erase nor a write;
* events merge by a stable sort on (cycle, kind rank), the rank being a
  per-architecture intra-cycle order (``_EVENT_ORDER``).

One :class:`RcamEngine` models the memory of every architecture and takes
only a geometry.  Its ``update`` checks the payload, runs the erase pass
over the old table, the erase-store swap and the write pass, and returns
``timing`` on the ideal bus of the geometry's width, without events, so
from the closed forms alone: the benchmark's tracer
(``perfbench/tracing.py``) reads that trace.  A CAM never written holds no
bit, so while its erase store holds no table an update skips the erase
pass, which subtracts only bits that are set and would change no cell.

The sorted (cycle, rank, arg) arrays are the trace's only event record.
:class:`EventColumns` holds them as read-only columns and writes them as
JSONL in one pass over a byte matrix: each event is a NUL-padded row of its
kind's text pieces and the decimal digits of its cycle and argument, and
dropping the NULs leaves the lines ``json.dumps`` would write.

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

import numpy as np

from .bus import (ETA_RESOLUTION, IDEAL_BUS, OVERHEAD_RESOLUTION, BusModel,
                  demand_schedule, ideal_bus, stream_schedule)
from .erase_store import EraseStore
from .geometry import MAX_DEPTH, CamGeometry
from .rcu import RcamArray


class EngineError(ValueError):
    """Raised for payload/geometry/bus mismatches."""


_EVENT_ARG_NAME = {
    "beat": "beat",
    "erase": "word",
    "write": "word",
    "erase_row": "row",
    "write_row": "row",
    "stall": None,
}
# What every event's JSONL line starts and ends with.
_JSONL_HEAD = np.frombuffer(b'{"cycle": ', dtype=np.uint8)
_JSONL_TAIL = np.frombuffer(b"}\n", dtype=np.uint8)
# Longest update whose events are recorded: 4x the longest ideal-bus update
# (s1, 2 * MAX_DEPTH cycles), which admits every ideal-bus and calibrated
# trace up to MAX_DEPTH words.  Event memory grows with the cycles, not the
# table, so a large burst overhead or a small eta would otherwise exhaust it.
MAX_TRACE_CYCLES = 4 * 2 * MAX_DEPTH


def _digits(values: np.ndarray) -> np.ndarray:
    """The ASCII decimal digits of non-negative ints, one row per value,
    right-aligned and NUL-padded on the left.  The arithmetic is uint64, so
    every int64 fits."""
    q = values.astype(np.uint64)
    width = len(str(int(q.max(initial=0))))
    # Built one contiguous column at a time, from the units digit left,
    # into reused buffers; the digit 10**k shows when the value is at
    # least 10**k, and the units digit always shows.
    digits = np.empty((width, q.size), dtype=np.uint8)
    tens, units = np.empty_like(q), np.empty_like(q)
    for col in range(width - 1, -1, -1):
        np.floor_divide(q, 10, out=tens)
        np.multiply(tens, 10, out=units)
        np.subtract(q, units, out=units)
        np.add(units, ord("0"), out=digits[col], casting="unsafe")
        if col < width - 1:
            digits[col] *= q > 0
        q, tens = tens, q
    return digits.T


class EventColumns:
    """One update's events as read-only columns, in event order.

    ``cycles``, ``ranks`` and ``args`` hold each event's cycle, its kind as
    an index into ``kinds`` and its beat, word or row number.  A stall has
    no argument: its ``args`` entry counts the stalls before it, and the
    JSONL line leaves it out.
    """

    __slots__ = ("kinds", "cycles", "ranks", "args")

    def __init__(self, kinds: tuple[str, ...], cycles: np.ndarray,
                 ranks: np.ndarray, args: np.ndarray):
        for column in (cycles, ranks, args):
            column.flags.writeable = False
        self.kinds, self.cycles, self.ranks, self.args = kinds, cycles, ranks, args

    def __len__(self) -> int:
        return self.cycles.size

    def to_jsonl(self) -> str:
        """Each event's line as ``json.dumps`` writes it, in event order,
        every line ending in a newline.

        Each event is one row of a byte matrix: the constant head, the
        cycle's digits, its kind's piece (taken by rank from a per-kind
        table), the argument's digits and the constant tail, all padded
        with NULs, which are then dropped.
        """
        names = [_EVENT_ARG_NAME[kind] for kind in self.kinds]
        pieces = [f', "kind": "{kind}"' + (f', "{name}": ' if name else "")
                  for kind, name in zip(self.kinds, names)]
        table = np.zeros((len(pieces), max(map(len, pieces))), dtype=np.uint8)
        for row, piece in zip(table, pieces):
            row[:len(piece)] = np.frombuffer(piece.encode("ascii"), np.uint8)
        args = _digits(self.args)
        args[np.array([name is None for name in names])[self.ranks]] = 0
        n = len(self)
        rows = np.concatenate([
            np.broadcast_to(_JSONL_HEAD, (n, _JSONL_HEAD.size)),
            _digits(self.cycles), np.take(table, self.ranks, axis=0), args,
            np.broadcast_to(_JSONL_TAIL, (n, _JSONL_TAIL.size))], axis=1)
        return rows.tobytes().translate(None, b"\0").decode("ascii")


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
        head = json.dumps({"kind": "trace_summary", **self.summary()}) + "\n"
        return head + self.events.to_jsonl() if self.events else head


def _as_payload(geometry: CamGeometry, payload) -> np.ndarray:
    arr = np.asarray(payload, dtype=np.uint64)
    if arr.ndim != 1 or arr.size != geometry.depth_n:
        raise EngineError(
            f"payload must hold {geometry.depth_n} words, got shape {arr.shape}")
    if arr.size and int(arr.max()) > geometry.word_mask:
        raise EngineError(f"payload word exceeds {geometry.word_width_w} bits")
    return arr


class RcamEngine:
    """The memory of one CAM: its RCU grid and its erase store.

    The three architectures hold the same words in the same RCUs and differ
    only in when the erase and write passes happen, which ``timing`` owns,
    so the architecture reaches the engine only through its geometry.
    """

    def __init__(self, geometry: CamGeometry):
        self.geometry = geometry
        self.cam = RcamArray(geometry)
        self.eram = EraseStore(geometry)

    def update(self, payload) -> UpdateTrace:
        """Run one full-table update; return its ideal-bus trace.

        The trace stays because the benchmark's tracer reads it; it comes
        from the closed forms, so no schedule is built, and the geometry's
        own ideal bus is never refused.  The erase pass is
        skipped while the store holds no table: no write has begun, so the
        grid has no bit to clear.
        """
        g = self.geometry
        trace = timing(g, ideal_bus(g.bus_width_b))
        payload = _as_payload(g, payload)
        old = self.eram.stored_words()
        if old is not None:  # erase pass
            self.cam.apply_full_table(old, 0)
        self.eram.store_words(payload)
        self.cam.apply_full_table(payload, 1)  # write pass
        return trace


# The benchmark's tracer (perfbench/tracing.py) wraps ``update`` under these
# names, looked up in the class ``__dict__``: all three are this one class.
S1Engine = S2Engine = S3Engine = RcamEngine


def cycle_total(geometry: CamGeometry, bus: BusModel = IDEAL_BUS,
                prefetch_one_beat: bool = False) -> int:
    """Cycles of one full-table update on ``bus``, in closed form at its
    integer knobs: every schedule of :func:`timing` must end there."""
    if bus.bus_width_b != geometry.bus_width_b:
        raise EngineError(
            f"bus width {bus.bus_width_b} != geometry bus width "
            f"{geometry.bus_width_b}")
    return _cycles(geometry, bus.eta_units, bus.overhead_units,
                   prefetch_one_beat)


def _cycles(g: CamGeometry, e: int, o: int, prefetch: bool = False) -> int:
    """:func:`cycle_total` at eta = e/1000 and overhead = o/100, in exact
    integer arithmetic; the bus width is the geometry's."""
    beats = g.beat_count
    if g.architecture == "s1":
        stalls = beats * o // OVERHEAD_RESOLUTION  # floor(beats * overhead)
        if not prefetch:
            return 2 * g.depth_n + stalls
        # The first stall shows whole, each later one overlaps the c cycles
        # of the beat before; n_hi of those beats - 1 stalls are lo + 1.
        c, lo = 2 * g.words_per_bus_beat, o // OVERHEAD_RESOLUTION
        n_hi = stalls - beats * lo
        return (lo + c + n_hi * max(c, 2 + lo)
                + (beats - 1 - n_hi) * max(c, 1 + lo))
    streamed = -(-beats * ETA_RESOLUTION // e)  # ceil(beats / eta)
    if g.architecture == "s2":
        return streamed + beats
    return max(2 * g.erase_row_count, streamed + 1)


def check_traceable(total: int) -> None:
    """Refuse to record the events of an update of ``total`` cycles above
    ``MAX_TRACE_CYCLES``."""
    if total > MAX_TRACE_CYCLES:
        raise EngineError(
            f"a traced update may take at most {MAX_TRACE_CYCLES} cycles; "
            f"this one takes {total}")


def timing(geometry: CamGeometry, bus: BusModel = IDEAL_BUS,
           prefetch_one_beat: bool = False,
           record_events: bool = False) -> UpdateTrace:
    """The trace of one full-table update on ``bus``, from the closed forms
    alone: this takes no payload and builds no engine.  Only
    ``record_events`` builds the cycle schedule, which is refused unless its
    extremes are the closed-form spans; so are events for an update longer
    than ``MAX_TRACE_CYCLES``.  ``prefetch_one_beat`` is the s1 sensitivity
    knob of ``demand_schedule``."""
    g = geometry
    total = cycle_total(g, bus, prefetch_one_beat)
    spans, catch_up = _spans(g, bus.eta_units, bus.overhead_units, total)
    events = None
    if record_events:
        check_traceable(total)
        beats, *phases = _schedule(g, bus, prefetch_one_beat)
        extremes = tuple((int(a.min()), int(a.max())) for a in phases)
        if extremes != spans:
            raise EngineError(
                f"schedule spans {extremes}, the closed form {spans}")
        events = _events(_EVENT_ORDER[g.architecture], total, beats, *phases)
    return UpdateTrace(
        architecture=g.architecture, depth_n=g.depth_n,
        word_width_w=g.word_width_w, total_cycles=total,
        bus_read_cycles=g.beat_count,
        stall_cycles=total - _cycles(g, ETA_RESOLUTION, 0),
        erase_span=spans[0], write_span=spans[1], catch_up_cycles=catch_up,
        events=events)


def _spans(g: CamGeometry, e: int, o: int, total: int):
    """The (erase span, write span) and the s3 catch-up of an update of
    ``total`` cycles, in closed form at eta = e/1000 and overhead = o/100,
    with c(x) = ceil(1000x/e) the cycles until x beats have streamed."""
    if g.architecture == "s1":
        # Word 0 waits stall 0, floor(o/100); the last write ends the update.
        first = o // OVERHEAD_RESOLUTION
        return ((first, total - 2), (first + 1, total - 1)), None
    if g.architecture == "s2":  # the total is c(B) + B
        last = total - g.beat_count - 1
        return ((-(-ETA_RESOLUTION // e) - 1, last), (last + 1, total - 1)), None
    # Group j is ready at c((j+1)P) and written at max(G + j, ready) while
    # the backlog of the erase pass lasts, and ready - j never falls as j
    # grows.  So the backlog has drained at once (length 1) when the first
    # group is late, and otherwise at the first j in [1, G) with
    # (j+1)a > (G+j)e, a = 1000P (length j + 1), or after the last write.
    groups, a = g.erase_row_count, ETA_RESOLUTION * g.partitions_p
    j = (groups * e - a) // (a - e) + 1 if a > e else groups
    catch_up = 1 if a > groups * e else min(j, groups) + 1
    return ((0, groups - 1), (max(-(-a // e), groups), total - 1)), catch_up


def _schedule(g: CamGeometry, bus: BusModel, prefetch_one_beat: bool):
    """The (beats, erases, writes) schedule of one update.

    ``beats[b]`` is the arrival cycle of bus beat b; ``erases[i]`` and
    ``writes[i]`` are the cycles of erase i and write i, which handle word i
    in s1, and erase-store row i or word group i in s2 and s3.
    """
    if g.architecture == "s1":
        wb = g.words_per_bus_beat
        beats = demand_schedule(bus, g.beat_count, 2 * wb, prefetch_one_beat)
        # Word o of a beat is erased 2*o cycles into the beat and written
        # the cycle after.
        erases = (beats[:, None] + 2 * np.arange(wb)).ravel()
        return beats, erases, erases + 1
    beats = stream_schedule(bus, g.beat_count)
    if g.architecture == "s2":
        # Phase E: beat r lands in erase-store row r while the old row clears
        # its k words the same cycle (dual-port read-before-write).  Phase W:
        # one row per cycle, starting right after the last erase.
        writes = np.arange(g.beat_count, dtype=np.int64) + (int(beats[-1]) + 1)
        return beats, beats, writes
    return (beats, np.arange(g.erase_row_count, dtype=np.int64),
            _s3_writes(g, beats))


def _s3_writes(g: CamGeometry, avail: np.ndarray) -> np.ndarray:
    """Write cycle of each s3 word group."""
    groups = g.erase_row_count
    # The erase pass reads old contents only, so beat arrival never gates
    # it.  Beat b lands in row b // P no earlier than cycle b >= b // P,
    # i.e. never before that row's erase read; same-cycle collisions are
    # shielded by read-before-write, so the pre-pass snapshot is
    # cycle-exact.  A schedule that breaks this premise is refused.
    if not bool((avail >= np.arange(g.beat_count)).all()):
        raise EngineError(
            "bus schedule delivers a beat before the cycle of its index")
    # Group g is ready the cycle after its last beat; never before the
    # erase pass (rows 0..groups-1 at cycles 0..groups-1) has finished.
    ready = avail[g.partitions_p - 1::g.partitions_p] + 1
    base = np.maximum(ready, groups)
    idx = np.arange(groups, dtype=np.int64)
    return np.maximum.accumulate(base - idx) + idx


# Intra-cycle event order of each architecture.  In s1 and s2 a beat lands
# before the erase it feeds.  In s3 the wide erase read happens before any
# same-cycle beat load (dual-port read-before-write); a write reads a row
# whose beats all landed in earlier cycles.  Stalls rank last everywhere.
_EVENT_ORDER = {
    "s1": ("beat", "erase", "write", "stall"),
    "s2": ("beat", "erase_row", "write_row", "stall"),
    "s3": ("erase_row", "beat", "write_row", "stall"),
}


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
