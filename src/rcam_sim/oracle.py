"""Brute-force reference CAM: ground truth for every functional property."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import RCU_SLOTS

# Bytes of the system's packed (rcb*k, keys) uint32 slot masks, and reference
# hits (some 40 bytes of index arrays each), that equivalence_check holds per
# chunk of distinct keys: verification memory stays flat as keys and hits
# grow.  A chunk exceeds the hit budget only if its first key alone does.
_COMPARE_BYTES = 1 << 24
_HIT_BUDGET = 1 << 19


class ReferenceCam:
    """Plain word table.

    ``search_batch`` scans it, O(N) per key by design.
    ``hits`` looks keys up in a stable sort of the occupied words, built on
    first use after ``update`` or ``load_full``.
    """

    def __init__(self, depth_n: int, word_width_w: int):
        if depth_n <= 0:
            raise ValueError("depth_n must be positive")
        if word_width_w <= 0 or word_width_w % 8 or word_width_w > 64:
            raise ValueError("word_width_w must be a multiple of 8, <= 64")
        self.depth_n = depth_n
        self.word_width_w = word_width_w
        self.word_mask = (1 << word_width_w) - 1
        # smallest dtype that holds a word: the scan stays a plain equality
        dtype = next(t for t in (np.uint8, np.uint16, np.uint32, np.uint64)
                     if np.iinfo(t).bits >= word_width_w)
        self.words = np.zeros(depth_n, dtype=dtype)
        self.occupied = np.zeros(depth_n, dtype=bool)
        # (occupied word indices stably sorted by value, their values)
        self._sorted = None

    def update(self, index: int, value: int) -> None:
        if not 0 <= index < self.depth_n:
            raise ValueError(f"index {index} out of range [0, {self.depth_n})")
        if not 0 <= value <= self.word_mask:
            raise ValueError(f"value does not fit {self.word_width_w} bits")
        self.words[index] = value
        self.occupied[index] = True
        self._sorted = None

    def load_full(self, payload) -> None:
        arr = np.asarray(payload, dtype=np.uint64)
        if arr.shape != (self.depth_n,):
            raise ValueError(f"payload must hold {self.depth_n} words")
        if int(arr.max()) > self.word_mask:
            raise ValueError(f"payload word wider than {self.word_width_w} bits")
        self.words[:] = arr
        self.occupied[:] = True
        self._sorted = None

    def search_batch(self, keys) -> np.ndarray:
        keys = self._keys(keys)
        return (self.words[None, :] == keys[:, None]) & self.occupied[None, :]

    def hit_counts(self, keys) -> np.ndarray:
        """Number of occupied words that match each key."""
        first, end = self._spans(keys)
        return end - first

    def hits(self, keys) -> tuple[np.ndarray, np.ndarray]:
        """Per-key hit counts, and the matching word indices of every key in
        turn, each key's in ascending order."""
        first, end = self._spans(keys)
        counts = end - first
        # hit h of the chunk sits at sorted position h + first - (hits before)
        shift = np.repeat(first - (np.cumsum(counts) - counts), counts)
        return counts, self._sorted[0][np.arange(counts.sum()) + shift]

    def _keys(self, keys) -> np.ndarray:
        keys = np.asarray(keys, dtype=np.uint64)
        if keys.size and int(keys.max()) > self.word_mask:
            raise ValueError(f"key wider than {self.word_width_w} bits")
        return keys.astype(self.words.dtype)

    def _spans(self, keys) -> tuple[np.ndarray, np.ndarray]:
        """Start and end of each key's run in the sorted occupied words."""
        if self._sorted is None:
            occupied = np.flatnonzero(self.occupied)
            order = occupied[np.argsort(self.words[occupied], kind="stable")]
            self._sorted = order, self.words[order]
        keys, values = self._keys(keys), self._sorted[1]
        return (np.searchsorted(values, keys, "left"),
                np.searchsorted(values, keys, "right"))


@dataclass(frozen=True)
class EquivalenceResult:
    passed: bool
    keys_checked: int
    first_divergence: tuple[int, int] | None  # (key, word index)


def _key_chunks(reference: ReferenceCam, distinct: np.ndarray, step: int):
    """Slices of at most ``step`` distinct keys with at most ``_HIT_BUDGET``
    reference hits in all, unless the first key alone has more."""
    if reference.depth_n <= _HIT_BUDGET:
        # distinct keys have at most N hits: only ``step`` binds
        for start in range(0, distinct.size, step):
            yield slice(start, start + step)
        return
    hits = np.concatenate(([0], reference.hit_counts(distinct).cumsum()))
    start = 0
    while start < distinct.size:
        fit = np.searchsorted(hits[start + 1:start + 1 + step],
                              hits[start] + _HIT_BUDGET, "right")
        end = start + max(1, int(fit))
        yield slice(start, end)
        start = end


def equivalence_check(system, reference: ReferenceCam, keys) -> EquivalenceResult:
    """Compare a CAM system against the reference over a key sample.

    ``system`` needs a ``geometry`` and a ``match_masks`` returning the
    (rcb*k, keys) uint32 slot masks of :meth:`RcamArray.match_masks`.  Each
    distinct key is searched once on both sides, in sorted order and in
    chunks within ``_COMPARE_BYTES`` and ``_HIT_BUDGET``.  A key's masks
    equal its reference hits exactly when every hit word's (unit, slot) bit
    is set and the masks hold no other bit.  The verdict carries the first
    diverging (key, word index): the diverging key seen earliest in
    ``keys``, then its smallest word.
    """
    g = system.geometry
    if (g.depth_n, g.word_width_w) != (reference.depth_n, reference.word_width_w):
        raise ValueError(
            f"shape mismatch: system {g.depth_n}x{g.word_width_w}, "
            f"reference {reference.depth_n}x{reference.word_width_w}")
    keys = np.asarray(keys, dtype=np.uint64)
    k = g.words_per_beat_k
    units = g.rcb_count * k
    # return_index makes numpy sort stably; its default uint64 sort
    # loads SIMD code that adds 0.6 MB to a small verify run's peak RSS
    distinct, first = np.unique(keys, return_index=True)
    found = None  # (first position, key, word) of the earliest divergence
    step = max(1, _COMPARE_BYTES // (4 * units))
    for at in _key_chunks(reference, distinct, step):
        chunk = distinct[at]
        got = system.match_masks(chunk)
        if got.shape != (units, chunk.size):
            raise ValueError(
                f"match mask shape {got.shape}, expected {(units, chunk.size)}")
        counts, words = reference.hits(chunk)
        # each hit word's unit and slot bit, as map_word_index places it
        q, pos = np.divmod(words, k)  # q = rcb * RCU_SLOTS + slot
        bit = np.left_shift(np.uint32(1), (q % RCU_SLOTS).astype(np.uint32))
        column = np.repeat(np.arange(chunk.size), counts)
        diverged = np.bitwise_count(got).sum(axis=0) != counts
        diverged[column[got[q // RCU_SLOTS * k + pos, column] & bit == 0]] = True
        if not diverged.any():
            continue
        i = np.flatnonzero(diverged)[first[at][diverged].argmin()]
        if found is None or first[at][i] < found[0]:
            # the one diverging key's engine matches in word order, with
            # the reference's hits flipped
            diff = np.unpackbits(got[:, i].astype("<u4").view(np.uint8),
                                 bitorder="little")
            diff = diff.reshape(-1, k, RCU_SLOTS).transpose(0, 2, 1).ravel()
            diff[words[column == i]] ^= 1
            found = (first[at][i], int(chunk[i]), int(diff.argmax()))
    return EquivalenceResult(found is None, keys.size, found and found[1:])
