"""Brute-force reference CAM: ground truth for every functional property."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import RCU_SLOTS

# Bytes of each side's packed (rcb*k, keys) uint32 slot masks, and reference
# hits (some 40 bytes of index arrays each), that equivalence_check holds per
# key chunk: verification memory stays flat as keys and hits grow.  Hits are
# looked up once per distinct key of a chunk, so a chunk never holds more
# than N of them, and it exceeds the budget only if its first key alone does.
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


def _key_chunks(reference: ReferenceCam, keys: np.ndarray, step: int):
    """Slices of at most ``step`` keys whose distinct keys have at most
    ``_HIT_BUDGET`` reference hits, unless the first key alone has more."""
    if reference.depth_n <= _HIT_BUDGET:
        # distinct keys have at most N hits: only ``step`` binds
        for start in range(0, keys.size, step):
            yield slice(start, start + step)
        return
    hit_counts = reference.hit_counts(keys)
    # previous position of each key's value in ``keys``, -1 for the first
    by_value = np.argsort(keys, kind="stable")
    repeat = keys[by_value[1:]] == keys[by_value[:-1]]
    previous = np.full(keys.size, -1)
    previous[by_value[1:][repeat]] = by_value[:-1][repeat]
    start = 0
    while start < keys.size:
        # hits a chunk from start adds with each key not already in it
        stop = min(keys.size, start + step)
        new_hits = np.where(previous[start:stop] < start,
                            hit_counts[start:stop], 0).cumsum()
        end = start + int(np.searchsorted(
            new_hits, max(_HIT_BUDGET, new_hits[0]), "right"))
        yield slice(start, end)
        start = end


def equivalence_check(system, reference: ReferenceCam, keys) -> EquivalenceResult:
    """Compare a CAM system against the reference over a key sample.

    ``system`` needs a ``geometry`` and a ``match_masks`` returning the
    (rcb*k, keys) uint32 slot masks of :meth:`RcamArray.match_masks`.  The
    reference's hits for each distinct key of a chunk are scattered into
    that packed layout, at each word's unit and slot bit, spread to every
    copy of the key and XORed with the system's masks, so the result is
    nonzero exactly where the two disagree.  The verdict carries the first
    diverging (key, word index): the earliest key, then its smallest word.
    Keys go in chunks whose masks fit ``_COMPARE_BYTES`` and whose distinct
    keys' reference hits fit ``_HIT_BUDGET``.
    """
    g = system.geometry
    if (g.depth_n, g.word_width_w) != (reference.depth_n, reference.word_width_w):
        raise ValueError(
            f"shape mismatch: system {g.depth_n}x{g.word_width_w}, "
            f"reference {reference.depth_n}x{reference.word_width_w}")
    keys = np.asarray(keys, dtype=np.uint64)
    k = g.words_per_beat_k
    units = g.rcb_count * k
    # each word's unit and slot bit, as geometry.map_word_index places it
    rcb, rem = np.divmod(np.arange(g.depth_n), RCU_SLOTS * k)
    slot, pos = np.divmod(rem, k)
    unit_of = rcb * k + pos
    bit_of = np.left_shift(np.uint32(1), slot.astype(np.uint32))
    step = max(1, _COMPARE_BYTES // (4 * units))
    for at in _key_chunks(reference, keys, step):
        chunk = keys[at]
        got = system.match_masks(chunk)
        if got.shape != (units, chunk.size):
            raise ValueError(
                f"match mask shape {got.shape}, expected {(units, chunk.size)}")
        # return_index makes numpy sort stably; its default uint64 sort
        # loads SIMD code that adds 0.6 MB to a small verify run's peak RSS
        distinct, _, copy_of = np.unique(chunk, return_index=True,
                                         return_inverse=True)
        counts, words = reference.hits(distinct)
        # A key's hits are distinct words, so their (unit, slot) bits never
        # collide and adding them ORs them.
        want = np.zeros((units, distinct.size), dtype=np.uint32)
        np.add.at(want.reshape(-1),
                  unit_of[words] * distinct.size
                  + np.repeat(np.arange(distinct.size), counts), bit_of[words])
        # np.take gives a fresh array to XOR into; want[:, copy_of] is slower
        want = np.take(want, copy_of, axis=1)
        diff = np.bitwise_xor(got, want, out=want)
        diverged = diff.any(axis=0)
        if diverged.any():
            ki = int(diverged.argmax())
            word = int(np.flatnonzero(diff[unit_of, ki] & bit_of)[0])
            return EquivalenceResult(False, keys.size, (int(chunk[ki]), word))
    return EquivalenceResult(True, keys.size, None)
