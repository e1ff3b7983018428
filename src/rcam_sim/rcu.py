"""Functional model of the CAM storage: the RCU grid and its searches.

Each RCU is one block RAM seen as a 256x32 bit matrix: row index is the
8-bit sub-word value, column index is the slot.  Writing through the narrow
port sets or clears a single cell; searching reads a whole row and yields a
32-bit per-slot match vector.

:class:`RcamArray` is the full grid of RCUs for a geometry.  It stores every
RCU row-packed in one numpy array (row value -> 32-bit slot mask).  The
engines' erase and write passes touch the cells of a whole table at once
(:meth:`RcamArray.apply_full_table`), or of one word (``apply_word``);
searches AND the slices' packed slot masks, then unpack to word order.
"""

from __future__ import annotations

import hashlib

import numpy as np

from .geometry import (RCU_ROWS, RCU_SLOTS, SUB_WORD_BITS, CamGeometry,
                       map_word_index)

_SLOT_SHIFTS = np.arange(RCU_SLOTS, dtype=np.uint32)


class RcamArray:
    """The complete RCU grid of one CAM instance.

    Layout: ``cells[flat, row]`` is the 32-bit slot mask of RCU ``flat`` at
    row ``row``, with ``flat = (rcb * k + position) * slices + slice_no``.
    """

    def __init__(self, geometry: CamGeometry):
        self.geometry = geometry
        self.cells = np.zeros((geometry.rcu_count, RCU_ROWS), dtype=np.uint32)
        # RCU flat ids of one slice, ordered (rcb, position); the same order
        # every slot group uses.
        k = geometry.words_per_beat_k
        base = (np.arange(geometry.rcb_count)[:, None] * k
                + np.arange(k)[None, :]).ravel() * geometry.slices
        self._slice_ids = [base + c for c in range(geometry.slices)]

    # -- bulk erase/write (engines) -------------------------------------------

    def _sub_words(self, values: np.ndarray, slice_no: int) -> np.ndarray:
        return ((values >> np.uint64(SUB_WORD_BITS * slice_no))
                & np.uint64(0xFF)).astype(np.intp)

    def apply_full_table(self, values: np.ndarray, bit: int) -> None:
        """Set (bit=1) or clear (bit=0) the cell of every word in the table.

        ``values[v]`` is the word whose cells are touched at global index v.
        Grouped by slot so each fancy-indexed op hits unique (rcu, row) pairs.
        """
        g = self.geometry
        grouped = values.reshape(g.rcb_count, RCU_SLOTS, g.words_per_beat_k)
        for slot in range(RCU_SLOTS):
            self._apply_slot(grouped[:, slot, :].ravel(), slot, bit)

    def apply_word(self, word: int, value: int, bit: int) -> None:
        g = self.geometry
        rcb, slot, pos = map_word_index(g, word)
        mask = np.uint32(1 << slot)
        for c in range(g.slices):
            flat = g.rcu_flat_index(rcb, pos, c)
            row = (value >> (SUB_WORD_BITS * c)) & 0xFF
            if bit:
                self.cells[flat, row] |= mask
            else:
                self.cells[flat, row] &= ~mask

    def _apply_slot(self, values: np.ndarray, slot: int, bit: int) -> None:
        mask = np.uint32(1 << slot)
        for c, ids in enumerate(self._slice_ids):
            rows = self._sub_words(values, c)
            if bit:
                self.cells[ids, rows] |= mask
            else:
                self.cells[ids, rows] &= ~mask

    # -- search ----------------------------------------------------------------

    def slice_match(self, slice_no: int, sub_key: int) -> np.ndarray:
        """Length-N match vector of one byte slice, in global word order."""
        if not 0 <= sub_key < RCU_ROWS:
            raise ValueError(f"sub_key {sub_key} out of range")
        packed = self.cells[self._slice_ids[slice_no], sub_key]
        return self._unpack(packed[:, None])[0]

    def search(self, key: int) -> np.ndarray:
        """Length-N boolean match vector for a full-width key."""
        return self.search_batch(np.asarray([key], dtype=np.uint64))[0]

    def search_batch(self, keys: np.ndarray) -> np.ndarray:
        """Match vectors for many keys at once; shape (len(keys), N).

        The slice AND runs on packed 32-bit slot masks (bit extraction
        commutes with bitwise AND), so the word-order unpack happens once.
        """
        g = self.geometry
        keys = np.asarray(keys, dtype=np.uint64)
        if keys.ndim != 1:
            raise ValueError("keys must be one-dimensional")
        if keys.size and int(keys.max()) > g.word_mask:
            raise ValueError(f"key wider than {g.word_width_w} bits")
        packed = None
        for c in range(g.slices):
            sub = ((keys >> np.uint64(SUB_WORD_BITS * c)) & np.uint64(0xFF))
            rows = self.cells[self._slice_ids[c][:, None], sub[None, :].astype(np.intp)]
            packed = rows if packed is None else packed & rows
        return self._unpack(packed)

    def _unpack(self, packed: np.ndarray) -> np.ndarray:
        """(rcb*k, nk) packed slot masks -> (nk, N) boolean word matches."""
        g = self.geometry
        k = g.words_per_beat_k
        m, nk = packed.shape
        octets = packed.astype("<u4", copy=False).view(np.uint8)
        bits = np.unpackbits(octets.reshape(m, nk, 4), axis=-1,
                             bitorder="little")  # (m, nk, 32) slot bits
        grid = bits.reshape(g.rcb_count, k, nk, RCU_SLOTS)
        out = grid.transpose(2, 0, 3, 1).reshape(nk, g.depth_n)
        return np.ascontiguousarray(out).view(bool)

    # -- diagnostics -------------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.cells.any()

    def column_occupancy(self) -> np.ndarray:
        """(rcu_count, 32) set-bit counts; managed operation keeps all <= 1."""
        bits = (self.cells[:, :, None] >> _SLOT_SHIFTS[None, None, :]) & 1
        return bits.sum(axis=1, dtype=np.int64)

    def state_digest(self) -> str:
        return hashlib.sha256(self.cells.tobytes()).hexdigest()


def extract_match_addresses(match: np.ndarray, mode: str = "all") -> list[int]:
    """Set-bit positions of a match vector, ascending.

    ``mode='first'`` plays the priority-encoder role: lowest index or empty.
    """
    if mode not in ("all", "first"):
        raise ValueError(f"mode must be 'all' or 'first', got {mode!r}")
    hits = np.flatnonzero(np.asarray(match))
    if mode == "first":
        return [int(hits[0])] if hits.size else []
    return [int(h) for h in hits]
