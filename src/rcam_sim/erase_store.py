"""The erase store: the last word written at each CAM index.

An erase RAM remembers the last word written at each CAM slot so that stale
bits can be cleared before a rewrite.  The three architectures organize that
memory differently, but every organization holds the same N words; only the
reshape differs, and the reshape is set by the word map of
:mod:`rcam_sim.geometry` (erase-store row of word v = v // k):

* s1 -- one 32x8-bit table in front of every RCU: word v sits in table
  v // 32, slot v % 32, one byte per slice.
* s2 -- one central dual-port memory of ``beats x B`` bits: row r holds the
  k = B/W words of bus beat r.
* s3 -- the central memory split into P side-by-side sub-memories: wide row
  g holds the k = P*B/W words of word group g, beat b in partition b % P.

So one store serves all three: :class:`EraseStore` keeps the N words in
global word order.  It starts zeroed; the first-ever erase pass runs
unconditionally and erasing value 0 from an all-zero RCU is a no-op, so no
validity flags exist.  Dual-port read-before-write is realized by call
order: engines read the old words before storing the new ones.
"""

from __future__ import annotations

import numpy as np

from .geometry import CamGeometry


class EraseStore:
    """The N last-written words of one CAM instance, as ``uint64``."""

    def __init__(self, geometry: CamGeometry):
        self.geometry = geometry
        self.words = np.zeros(geometry.depth_n, dtype=np.uint64)

    def stored_words(self) -> np.ndarray:
        """Copy of the last-written word at every global index."""
        return self.words.copy()

    def store_words(self, values: np.ndarray) -> None:
        """Replace every entry from a full-table word array."""
        self.words[:] = values


# The benchmark's tracer (perfbench/tracing.py) wraps the store's methods
# under this name.
PerUnitEraseBank = EraseStore
