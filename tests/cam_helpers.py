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
