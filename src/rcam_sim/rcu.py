"""Functional model of the CAM storage: the RCU grid and its searches.

Each RCU is one block RAM seen as a 256x32 bit matrix: row index is the
8-bit sub-word value, column index is the slot.  Writing through the narrow
port sets or clears a single cell; searching reads a whole row and yields a
32-bit per-slot match vector.

:class:`RcamArray` is the full grid of RCUs for a geometry.  It stores every
RCU row-packed in one numpy array (row value -> 32-bit slot mask).  Erase and
write are the same port operation with a different bit, so one private
primitive, ``RcamArray._apply``, does every cell write: for a whole table
(:meth:`RcamArray.apply_full_table`, the engines' erase and write passes) and
for one word (``apply_word``).  A search ANDs the slices' packed slot masks
(:meth:`RcamArray.match_masks`); the oracle compares in that packed layout,
and only ``search_batch`` and ``slice_match`` unpack to word order.
"""

from __future__ import annotations

import numpy as np

from .geometry import (RCU_ROWS, RCU_SLOTS, SUB_WORD_BITS, CamGeometry,
                       map_word_index)

_SLOT_SHIFTS = np.arange(RCU_SLOTS, dtype=np.uint32)
_SLOT_MASKS = np.uint32(1) << _SLOT_SHIFTS


class RcamArray:
    """The complete RCU grid of one CAM instance.

    Layout: ``cells[unit * slices + slice_no, row]`` is the 32-bit slot mask
    of one RCU at row ``row``, where ``unit = rcb * k + position`` numbers
    the (rcb, position) units.
    """

    def __init__(self, geometry: CamGeometry):
        self.geometry = geometry
        self.cells = np.zeros((geometry.rcu_count, RCU_ROWS), dtype=np.uint32)

    # -- erase/write -----------------------------------------------------------

    def _apply(self, units, masks, values, bit: int) -> None:
        """Set (bit=1) or clear (bit=0) one cell per word and byte slice.

        ``units`` (intp, so adding a uint8 row cannot wrap), ``masks`` (32-bit
        slot masks) and ``values`` broadcast, one per word.  ``ufunc.at`` is
        unbuffered, so words that share a cell all land.
        """
        g = self.geometry
        flat = self.cells.reshape(-1)
        base = units * (g.slices * RCU_ROWS)
        op, masks = (np.bitwise_or, masks) if bit else (np.bitwise_and, ~masks)
        for c in range(g.slices):
            rows = (values >> np.uint64(SUB_WORD_BITS * c)).astype(np.uint8)
            op.at(flat, base + c * RCU_ROWS + rows, masks)

    def apply_full_table(self, values: np.ndarray, bit: int) -> None:
        """Set (bit=1) or clear (bit=0) the cell of every word in the table.

        ``values[v]`` is the word whose cells are touched at global index v.
        """
        g = self.geometry
        k = g.words_per_beat_k
        self._apply(np.arange(g.rcb_count * k).reshape(g.rcb_count, 1, k),
                    _SLOT_MASKS[None, :, None],
                    values.reshape(g.rcb_count, RCU_SLOTS, k), bit)

    def apply_word(self, word: int, value: int, bit: int) -> None:
        rcb, slot, pos = map_word_index(self.geometry, word)
        self._apply(np.intp(rcb * self.geometry.words_per_beat_k + pos),
                    _SLOT_MASKS[slot], np.uint64(value), bit)

    # -- search ----------------------------------------------------------------

    def slice_match(self, slice_no: int, sub_key: int) -> np.ndarray:
        """Length-N match vector of one byte slice, in global word order."""
        if not 0 <= slice_no < self.geometry.slices:
            raise ValueError(f"slice_no {slice_no} out of range")
        if not 0 <= sub_key < RCU_ROWS:
            raise ValueError(f"sub_key {sub_key} out of range")
        return self._unpack(self._gather(slice_no, np.array([sub_key])))[0]

    def search(self, key: int) -> np.ndarray:
        """Length-N boolean match vector for a full-width key."""
        return self.search_batch(np.asarray([key], dtype=np.uint64))[0]

    def search_batch(self, keys: np.ndarray) -> np.ndarray:
        """Match vectors for many keys at once; shape (len(keys), N)."""
        return self._unpack(self.match_masks(keys))

    def match_masks(self, keys: np.ndarray) -> np.ndarray:
        """Packed search results: (rcb*k, len(keys)) uint32 slot masks.

        Bit ``slot`` of ``masks[unit, i]`` is set when the word at
        ``(rcb, slot, pos)``, ``unit = rcb * k + pos``, matches ``keys[i]``.
        The slice AND runs on the packed masks (bit extraction commutes
        with bitwise AND), so no word-order unpack is needed.
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
            rows = self._gather(c, sub.astype(np.intp))
            packed = rows if packed is None else packed & rows
        return packed

    def _gather(self, slice_no: int, rows: np.ndarray) -> np.ndarray:
        """(rcb*k, len(rows)) packed slot masks of one slice at ``rows``."""
        return self.cells[slice_no::self.geometry.slices].take(rows, axis=1)

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

