"""The erase store: the last table written to a CAM, word by word.

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
global word order, at the narrowest unsigned dtype of a W-bit word, whose
byte slices the erase pass reads as a view (``geometry.byte_slices``).
Every update stores a whole table, so the store holds no table before the
first update and the last one after it: it needs no validity flags.
Dual-port read-before-write is realized by call order: engines read the old
words before storing the new ones.
"""

from __future__ import annotations

import numpy as np

from .geometry import CamGeometry


class EraseStore:
    """The last table written to one CAM instance, read-only at the narrowest
    unsigned dtype of its word width, or ``None`` before the first."""

    def __init__(self, geometry: CamGeometry):
        self.geometry = geometry
        self.words = None

    def stored_words(self) -> np.ndarray | None:
        """The last-written word at every global index, or ``None``."""
        return self.words

    def store_words(self, values: np.ndarray) -> None:
        """Keep a read-only copy of a full-table word array."""
        words = np.array(values, dtype=np.min_scalar_type(self.geometry.word_mask))
        words.flags.writeable = False
        self.words = words


# The benchmark's tracer (perfbench/tracing.py) wraps the store's methods
# under this name.
PerUnitEraseBank = EraseStore
