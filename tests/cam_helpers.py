"""Reads and writes of CAM state, reads of trace events and a schedule
refusal, that only the tests need.

Each read and write works on public attributes alone: the RCU cells and
``search_batch`` of an ``RcamArray``, the ``cam`` of an ``RcamEngine``, the
word table of a ``ReferenceCam`` and the columns of an ``EventColumns``.
The refusal patches the schedule builders of ``engines`` and ``bus``.
"""

import numpy as np

from rcam_sim import engines
from rcam_sim.bus import StallSequence
from rcam_sim.geometry import RCU_SLOTS, GeometryError


def refuse_schedules(monkeypatch, *names):
    """Make the cycle schedule, and the ``engines`` attributes ``names``,
    raise when called: what runs then takes no schedule."""
    def refuse(*args, **kwargs):
        raise AssertionError("built a schedule")

    for name in ("_schedule", "stream_schedule", *names):
        monkeypatch.setattr(engines, name, refuse)
    monkeypatch.setattr(StallSequence, "take", refuse)


def column_occupancy(cam) -> np.ndarray:
    """(rcu_count, 32) set-bit counts of an ``RcamArray``'s slot columns;
    managed operation keeps all <= 1."""
    slots = np.arange(RCU_SLOTS, dtype=np.uint32)
    bits = (cam.cells[:, :, None] >> slots) & 1
    return bits.sum(axis=1, dtype=np.int64)


def apply_words(geometry, cells: np.ndarray, words, bit: int) -> np.ndarray:
    """A copy of RCU ``cells`` after setting (bit=1) or clearing (bit=0) the
    cell bit of each (word index, value) of ``words``, one word and byte
    slice at a time with Python ints: the per-word OR and AND-NOT that
    ``RcamArray``'s scatter must equal."""
    out = cells.copy()
    k = geometry.words_per_beat_k
    for word, value in words:
        rcb, rem = divmod(word, RCU_SLOTS * k)
        slot, pos = divmod(rem, k)
        for c in range(geometry.slices):
            rcu = (rcb * k + pos) * geometry.slices + c
            row = (value >> (8 * c)) & 0xFF
            held = int(out[rcu, row])
            out[rcu, row] = (held | 1 << slot if bit
                             else held & ~(1 << slot) & 0xFFFFFFFF)
    return out


def poke_word(cam, word: int, value: int, bit: int) -> None:
    """Set (bit=1) or clear (bit=0) the cells of one word of an
    ``RcamArray`` in place, outside any update: a fault, such as a write
    without its erase."""
    cam.cells[...] = apply_words(cam.geometry, cam.cells, [(word, value)], bit)


def before_write_pass(engine, probe) -> None:
    """Call ``probe(engine)`` whenever ``engine`` starts an update's write
    pass: between its erase pass and its write pass, the one point where the
    grid holds neither the old table nor the new one."""
    apply_full_table = engine.cam.apply_full_table

    def wrapped(values, bit):
        if bit:
            probe(engine)
        apply_full_table(values, bit)

    engine.cam.apply_full_table = wrapped


def search(cam, key: int) -> np.ndarray:
    """Length-N boolean match vector of an ``RcamArray`` for one key."""
    return cam.search_batch(np.asarray([key], dtype=np.uint64))[0]


def scan(reference, key: int) -> np.ndarray:
    """Length-N match vector of a loaded ``ReferenceCam``, by a plain O(N)
    scan."""
    words = reference.words
    return words == words.dtype.type(key)


def map_word_index(geometry, word: int) -> tuple[int, int, int]:
    """Global word index -> (rcb, slot j, position i)."""
    if not 0 <= word < geometry.depth_n:
        raise GeometryError(
            f"word index {word} out of range [0, {geometry.depth_n})")
    rcb, rem = divmod(word, RCU_SLOTS * geometry.words_per_beat_k)
    j, i = divmod(rem, geometry.words_per_beat_k)
    return rcb, j, i


def word_index_of(geometry, rcb: int, slot: int, position: int) -> int:
    """The word at (rcb, slot, position): the inverse of
    ``map_word_index``, written from the placement formula."""
    k = geometry.words_per_beat_k
    return rcb * RCU_SLOTS * k + slot * k + position


def event_tuples(events) -> list[tuple[int, str, int | None]]:
    """The (cycle, kind, arg) tuple of each event of an ``EventColumns``, in
    event order; ``arg`` is None for a stall."""
    kinds = [events.kinds[rank] for rank in events.ranks.tolist()]
    return [(cycle, kind, None if kind == "stall" else arg)
            for cycle, kind, arg in zip(events.cycles.tolist(), kinds,
                                        events.args.tolist())]
