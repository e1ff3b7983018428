"""Reads of CAM state that only the tests need.

Each works on public attributes alone: the RCU cells of an ``RcamArray``
and the word table of a ``ReferenceCam``.
"""

import numpy as np

from rcam_sim.geometry import RCU_SLOTS


def column_occupancy(cam) -> np.ndarray:
    """(rcu_count, 32) set-bit counts of an ``RcamArray``'s slot columns;
    managed operation keeps all <= 1."""
    slots = np.arange(RCU_SLOTS, dtype=np.uint32)
    bits = (cam.cells[:, :, None] >> slots) & 1
    return bits.sum(axis=1, dtype=np.int64)


def scan(reference, key: int) -> np.ndarray:
    """Length-N match vector of a ``ReferenceCam``, by a plain O(N) scan."""
    words = reference.words
    return (words == words.dtype.type(key)) & reference.occupied
