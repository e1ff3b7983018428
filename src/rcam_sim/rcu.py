"""Functional model of the CAM storage: the RCU grid and its searches.

Each RCU is one block RAM seen as a 256x32 bit matrix: row index is the
8-bit sub-word value, column index is the slot.  Writing through the narrow
port sets or clears a single cell; searching reads a whole row and yields a
32-bit per-slot match vector.

:class:`RcamArray` is the full grid of RCUs for a geometry.  It stores every
RCU row-packed in one numpy array (row value -> 32-bit slot mask).  Erase and
write are the same port operation with a different bit, so one private
primitive, ``RcamArray._apply``, does every cell write: for a whole table
(:meth:`RcamArray.apply_full_table`, the engine's erase and write passes, in
blocks of ``_BLOCK_WORDS`` words) and for one word (``apply_word``).  It is
an exact add/subtract scatter: it gathers the cells' current bits, then adds
the slot bits still clear, or subtracts those still set.  A search ANDs the
slices' packed slot masks (:meth:`RcamArray.match_masks`).
``oracle.equivalence_check`` takes the array itself and compares in that
packed layout; only ``search_batch`` and ``slice_match`` unpack to word
order.
"""

from __future__ import annotations

import numpy as np

from .geometry import (RCU_ROWS, RCU_SLOTS, SUB_WORD_BITS, CamGeometry,
                       map_word_index)

_SLOT_MASKS = np.uint32(1) << np.arange(RCU_SLOTS, dtype=np.uint32)
# Words per ``apply_full_table`` block: the scatter's index, mask and gather
# temporaries (about 35 bytes a word) stay near 1 MB, in cache, for any N.
_BLOCK_WORDS = 1 << 15


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

    def _apply(self, cells, base, masks, values, bit: int) -> None:
        """Set (bit=1) or clear (bit=0) one cell per word and byte slice.

        ``cells`` is a run of whole units of the grid.  ``base`` (intp: the
        flat index in ``cells`` of each word's row 0 of slice 0), ``masks``
        (32-bit one-hot slot masks) and ``values`` are 1-D, one per word:
        only then does ``ufunc.at`` take its fast loop.

        Premise: within one call, words that share a cell touch distinct slot
        bits.  A whole table holds each (unit, slot) once, and ``apply_word``
        writes one word.  With ``held`` the cells' bits before the call, an
        unbuffered ``np.add.at`` of ``masks & ~held`` then equals the OR, and
        ``np.subtract.at`` of ``masks & held`` the AND-NOT, whatever the grid
        held.  numpy has fast indexed loops for ``add.at`` and
        ``subtract.at``, but none for the bitwise ufuncs.
        """
        flat = cells.reshape(-1)
        for c in range(self.geometry.slices):
            rows = (values >> np.uint64(SUB_WORD_BITS * c)).astype(np.uint8)
            idx = base + rows
            if c:
                idx += c * RCU_ROWS
            held = flat[idx]
            if bit:
                np.invert(held, out=held)  # the bits still clear
            held &= masks
            (np.add if bit else np.subtract).at(flat, idx, held)

    def apply_full_table(self, values: np.ndarray, bit: int) -> None:
        """Set (bit=1) or clear (bit=0) the cell of every word in the table.

        ``values[v]`` is the word whose cells are touched at global index v.
        """
        g = self.geometry
        k = g.words_per_beat_k
        values = values.reshape(g.depth_n)
        # Each block is whole RCBs: its words and its rows of the grid.
        rcbs = min(g.rcb_count, max(1, _BLOCK_WORDS // (RCU_SLOTS * k)))
        words, span = rcbs * RCU_SLOTS * k, rcbs * k * g.slices
        # Word v of a block is (rcb, slot, position) in (rcbs, RCU_SLOTS, k)
        # order: its first cell in the block's rows, and its slot mask.
        shape = (rcbs, RCU_SLOTS, k)
        base = np.broadcast_to(np.arange(rcbs * k).reshape(rcbs, 1, k)
                               * (g.slices * RCU_ROWS), shape).ravel()
        masks = np.broadcast_to(_SLOT_MASKS[:, None], shape).ravel()
        for b, start in enumerate(range(0, g.depth_n, words)):
            block = values[start:start + words]
            self._apply(self.cells[b * span:(b + 1) * span],
                        base[:block.size], masks[:block.size], block, bit)

    def apply_word(self, word: int, value: int, bit: int) -> None:
        g = self.geometry
        rcb, slot, pos = map_word_index(g, word)
        unit = rcb * g.words_per_beat_k + pos
        self._apply(self.cells[unit * g.slices:(unit + 1) * g.slices],
                    np.zeros(1, dtype=np.intp), _SLOT_MASKS[slot:slot + 1],
                    np.array([value], dtype=np.uint64), bit)

    # -- search ----------------------------------------------------------------

    def slice_match(self, slice_no: int, sub_key: int) -> np.ndarray:
        """Length-N match vector of one byte slice, in global word order."""
        if not 0 <= slice_no < self.geometry.slices:
            raise ValueError(f"slice_no {slice_no} out of range")
        if not 0 <= sub_key < RCU_ROWS:
            raise ValueError(f"sub_key {sub_key} out of range")
        return self._unpack(self._gather(slice_no, np.array([sub_key])))[0]

    def search_batch(self, keys: np.ndarray) -> np.ndarray:
        """Match vectors for many keys at once; shape (len(keys), N)."""
        return self._unpack(self.match_masks(keys))

    def match_masks(self, keys: np.ndarray) -> np.ndarray:
        """Packed search results: (rcb*k, len(keys)) uint32 slot masks, in a
        new C-ordered array that the caller owns and may change.

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
