"""Reads of CAM state and trace events that only the tests need.

Each works on public attributes alone: the RCU cells and ``search_batch``
of an ``RcamArray``, the word table of a ``ReferenceCam`` and the columns
of an ``EventColumns``.
"""

import numpy as np

from rcam_sim.geometry import RCU_SLOTS


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


def search(cam, key: int) -> np.ndarray:
    """Length-N boolean match vector of an ``RcamArray`` for one key."""
    return cam.search_batch(np.asarray([key], dtype=np.uint64))[0]


def scan(reference, key: int) -> np.ndarray:
    """Length-N match vector of a loaded ``ReferenceCam``, by a plain O(N)
    scan."""
    words = reference.words
    return words == words.dtype.type(key)


def word_index_of(geometry, rcb: int, slot: int, position: int) -> int:
    """The word at (rcb, slot, position): the inverse of
    ``geometry.map_word_index``, written from the placement formula."""
    k = geometry.words_per_beat_k
    return rcb * RCU_SLOTS * k + slot * k + position


def event_tuples(events) -> list[tuple[int, str, int | None]]:
    """The (cycle, kind, arg) tuple of each event of an ``EventColumns``, in
    event order; ``arg`` is None for a stall."""
    kinds = [events.kinds[rank] for rank in events.ranks.tolist()]
    return [(cycle, kind, None if kind == "stall" else arg)
            for cycle, kind, arg in zip(events.cycles.tolist(), kinds,
                                        events.args.tolist())]
