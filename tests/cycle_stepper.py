"""A naive per-cycle stepper of one full-table update: a timing oracle.

It walks one cycle at a time through explicit rules and shares no schedule
arithmetic with ``rcam_sim.engines`` or ``rcam_sim.bus``:

* The streaming bus (s2, s3) earns eta = e/1000 of a beat each cycle and
  delivers a beat in the cycle its credit reaches a whole beat, so at most
  one beat per cycle.
* The on-demand bus (s1) delivers a beat requested in cycle r in cycle
  r + 1 + stall.  Each burst's stall is the whole cycles of o/100 plus the
  fraction carried over from the bursts before it.
* A dual-port erase RAM reads a row before it writes it in the same cycle.
* At most one word group is written per cycle, in order.
* s1 runs one erase/write pair per word.  Without prefetch it requests the
  next beat in the last cycle of the current one (the first request goes
  out in cycle -1); with the one-beat prefetch, in the first.

A cycle with neither an erase nor a write is a stall.  Events are appended
in the order each cycle's rules run, which is the architecture's
intra-cycle event order.  It is a Python loop per cycle, meant for tables
of at most 4,096 words.
"""

from __future__ import annotations

from rcam_sim.bus import BusModel, ideal_bus


class _DemandBus:
    """s1's on-demand bus: one outstanding burst, fractional stalls."""

    def __init__(self, overhead: int, beats: int):
        self.overhead, self.carry = overhead, 0
        self.unrequested, self.landing = beats, None

    def request(self, cycle: int) -> None:
        if self.unrequested:
            self.unrequested -= 1
            stall, self.carry = divmod(self.carry + self.overhead, 100)
            self.landing = cycle + 1 + stall

    def take(self, cycle: int) -> bool:
        """Whether a landed beat is there for the consumer in ``cycle``."""
        if self.landing is None or cycle < self.landing:
            return False
        self.landing = None
        return True


def _step_s1(g, bus: BusModel, prefetch: bool) -> dict:
    c = 2 * g.words_per_bus_beat  # cycles per beat: one pair per word
    demand = _DemandBus(round(bus.burst_overhead_cycles * 100), g.beat_count)
    demand.request(-1)
    events, beat, step, cycle = [], -1, c, 0
    while not (beat == g.beat_count - 1 and step == c):
        if step == c and demand.take(cycle):
            beat, step = beat + 1, 0
            events.append((cycle, "beat", beat))
            if prefetch:
                demand.request(cycle)
        if step < c:
            word = beat * g.words_per_bus_beat + step // 2
            events.append((cycle, "write" if step % 2 else "erase", word))
            step += 1
            if step == c and not prefetch:
                demand.request(cycle)
        else:
            events.append((cycle, "stall", None))
        cycle += 1
    return {"events": events, "total_cycles": cycle, "catch_up_cycles": None}


def _step_streamed(g, bus: BusModel) -> dict:
    eta = round(bus.stream_efficiency * 1000)
    groups, p = g.erase_row_count, g.partitions_p
    landed: list[int] = []  # landed[b]: the cycle beat b arrived in
    events, credit, written, cycle, idle_from = [], 0, 0, 0, None
    while written < groups:
        erased = False
        if g.architecture == "s3" and cycle < groups:
            # the wide port reads old row `cycle` before any beat lands
            events.append((cycle, "erase_row", cycle))
            erased = True
        if len(landed) < g.beat_count:
            credit += eta
            if credit >= 1000:
                credit -= 1000
                beat = len(landed)
                landed.append(cycle)
                events.append((cycle, "beat", beat))
                if g.architecture == "s2":
                    # the beat's row is read (and its old words erased) and
                    # written with the beat in the same cycle
                    events.append((cycle, "erase_row", beat))
                    erased = True
                elif beat // p > cycle:
                    raise AssertionError("a beat lands before its row's read")
        erase_done = (cycle >= groups if g.architecture == "s3" else
                      len(landed) == g.beat_count and landed[-1] < cycle)
        last_beat = (written + 1) * p - 1  # of the next group to write
        wrote = (erase_done and last_beat < len(landed)
                 and landed[last_beat] < cycle)
        if wrote:
            events.append((cycle, "write_row", written))
            written += 1
        elif cycle >= groups and idle_from is None:
            idle_from = cycle  # s3: the backlog has drained
        if not (erased or wrote):
            events.append((cycle, "stall", None))
        cycle += 1
    catch_up = None
    if g.architecture == "s3":
        catch_up = (cycle if idle_from is None else idle_from) - (groups - 1)
    return {"events": events, "total_cycles": cycle,
            "catch_up_cycles": catch_up}


def step(g, bus: BusModel, prefetch: bool = False) -> dict:
    """The stepped update: its events as (cycle, kind, arg) tuples and the
    fields of ``UpdateTrace.summary`` other than ``stall_cycles``."""
    if g.architecture == "s1":
        stepped = _step_s1(g, bus, prefetch)
    else:
        stepped = _step_streamed(g, bus)
    events = stepped["events"]

    def span(*kinds):
        cycles = [cycle for cycle, kind, _ in events if kind in kinds]
        return (cycles[0], cycles[-1])

    return {**stepped, "architecture": g.architecture, "depth_n": g.depth_n,
            "word_width_w": g.word_width_w,
            "bus_read_cycles": sum(kind == "beat" for _, kind, _ in events),
            "erase_span": span("erase", "erase_row"),
            "write_span": span("write", "write_row")}


def stepped_summary(g, bus: BusModel, prefetch: bool = False):
    """The stepped update as ``UpdateTrace.summary()`` gives it, its stall
    cycles counted against the stepped ideal bus, and its events."""
    stepped = step(g, bus, prefetch)
    ideal = step(g, ideal_bus(g.bus_width_b), prefetch)["total_cycles"]
    summary = {k: list(v) if k.endswith("_span") else v
               for k, v in stepped.items() if k != "events"}
    summary["stall_cycles"] = stepped["total_cycles"] - ideal
    return summary, stepped["events"]
