"""Brute-force reference CAM: ground truth for every functional property.

The reference holds a whole table, which ``load_full`` replaces: every
update writes the whole table, so the reference is loaded once per update.
``equivalence_check`` compares a CAM's packed slot masks with the
reference's hit words, without unpacking or counting bits: a subtract
scatter clears every hit's bit, and a key diverges when one of its hit bits
was clear or when a bit is left over.  The masks' bytes cut the distinct
keys into chunks, and a hit budget cuts each chunk's hits into slices.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import RCU_SLOTS, byte_slices

# Bytes of the system's packed (rcb*k, keys) uint32 slot masks that
# equivalence_check holds per chunk of distinct keys, and reference hits
# (some 40 bytes of index arrays each) that it holds per slice of a chunk:
# verification memory stays flat as keys and hits grow.  A slice exceeds the
# hit budget only if its one key alone does.
_COMPARE_BYTES = 1 << 24
_HIT_BUDGET = 1 << 19


class ReferenceCam:
    """Plain word table, loaded whole by ``load_full``.

    ``search_batch`` scans it, O(N) per key by design.  ``spans`` finds
    each key's run in a stable sort of the words, built by the first
    ``spans`` after ``load_full``, and ``hits`` gathers the word indices of
    given runs.  Any search before the first ``load_full`` is refused.
    """

    def __init__(self, depth_n: int, word_width_w: int):
        if depth_n <= 0:
            raise ValueError("depth_n must be positive")
        if word_width_w <= 0 or word_width_w % 8 or word_width_w > 64:
            raise ValueError("word_width_w must be a multiple of 8, <= 64")
        self.depth_n = depth_n
        self.word_width_w = word_width_w
        self.word_mask = (1 << word_width_w) - 1
        self.words = None
        # (word indices stably sorted by value, their values)
        self._sorted = None

    def load_full(self, payload) -> None:
        arr = np.asarray(payload, dtype=np.uint64)
        if arr.shape != (self.depth_n,):
            raise ValueError(f"payload must hold {self.depth_n} words")
        if int(arr.max()) > self.word_mask:
            raise ValueError(f"payload word wider than {self.word_width_w} bits")
        # smallest dtype that holds a word: the scan stays a plain equality
        self.words = arr.astype(np.min_scalar_type(self.word_mask))
        self._sorted = None

    def search_batch(self, keys) -> np.ndarray:
        keys = self._keys(keys)
        return self.words[None, :] == keys[:, None]

    def spans(self, keys) -> tuple[np.ndarray, np.ndarray]:
        """Start and end of each key's run in the sorted words."""
        keys = self._keys(keys)
        if self._sorted is None:
            # The index is built lazily, after the compare's first masks, and
            # the copy is made while the argsort result is live, so the index
            # kept for the reference's lifetime lands above the compare's
            # temporaries: glibc then does not trim the heap and fault it in
            # again after every compare.  The flagship op took 1,108 minor
            # faults with the copy at each of 10 tree paths, and about 3,770
            # without it at 16 of 17, or when built in load_full (glibc on
            # x86-64 Linux; the tree's path shifts the heap).
            order = np.argsort(self.words, kind="stable")
            self._sorted = order.copy(), self.words[order]
        values = self._sorted[1]
        return (values.searchsorted(keys, "left"),
                values.searchsorted(keys, "right"))

    def hits(self, first: np.ndarray, counts: np.ndarray) -> np.ndarray:
        """Word indices of the sorted runs that start at ``first`` and hold
        ``counts`` words each (as ``spans`` gives them), run after run, each
        run's in ascending order."""
        # hit h sits at sorted position h + first - (hits of earlier runs)
        at = (first - (counts.cumsum() - counts)).repeat(counts)
        at += np.arange(at.size)
        return self._sorted[0].take(at)

    def _keys(self, keys) -> np.ndarray:
        if self.words is None:
            raise ValueError("the reference holds no table before load_full")
        keys = np.asarray(keys, dtype=np.uint64)
        if keys.size and int(keys.max()) > self.word_mask:
            raise ValueError(f"key wider than {self.word_width_w} bits")
        return keys.astype(self.words.dtype)


@dataclass(frozen=True)
class EquivalenceResult:
    passed: bool
    keys_checked: int
    first_divergence: tuple[int, int] | None  # (key, word index)


def equivalence_check(system, reference: ReferenceCam, keys) -> EquivalenceResult:
    """Compare a CAM system against the reference over a key sample.

    ``system`` is an :class:`RcamArray`, or anything with its ``geometry``
    and its ``match_masks``, the (rcb*k, keys) uint32 slot masks.  Each
    distinct key is searched once on both sides, in sorted order and in
    chunks whose masks fit in ``_COMPARE_BYTES``; a chunk's first diverging
    key is searched once more, for its diff.  A key's masks equal its
    reference hits exactly when every hit word's (unit, slot) bit is set and
    the masks hold no other bit.  ``match_masks`` must return a new array,
    since the compare clears the hits' bits in it.  The verdict carries the
    first diverging (key, word index): the diverging key seen earliest in
    ``keys``, then its smallest word.
    """
    g = system.geometry
    if (g.depth_n, g.word_width_w) != (reference.depth_n, reference.word_width_w):
        raise ValueError(
            f"shape mismatch: system {g.depth_n}x{g.word_width_w}, "
            f"reference {reference.depth_n}x{reference.word_width_w}")
    keys = np.asarray(keys, dtype=np.uint64)
    # return_index makes numpy sort stably; its default uint64 sort
    # loads SIMD code that adds 0.6 MB to a small verify run's peak RSS
    distinct, first = np.unique(keys, return_index=True)
    found = None  # (first position, key, word) of the earliest divergence
    step = max(1, _COMPARE_BYTES // (4 * g.rcb_count * g.words_per_beat_k))
    for at in range(0, distinct.size, step):
        seen = _chunk_divergence(system, reference, distinct[at:at + step],
                                 first[at:at + step])
        if seen is not None and (found is None or seen[0] < found[0]):
            found = seen
    return EquivalenceResult(found is None, keys.size, found and found[1:])


def _chunk_divergence(system, reference: ReferenceCam, chunk: np.ndarray,
                      first: np.ndarray):
    """(first position, key, word) of the chunk's diverging key that comes
    earliest in the sample, with its smallest diverging word, or None.

    Each hit's bit is cleared from the system's masks, in slices of keys
    with at most ``_HIT_BUDGET`` hits in all (a key with more is a slice of
    its own): a key diverges when one of its hit bits was clear, or a bit is
    left over.  Only the masks and per-key arrays outlive a slice, so no
    more than one chunk's masks and one slice's hits are alive at once.
    """
    g = system.geometry
    k = g.words_per_beat_k
    got = system.match_masks(chunk)
    if got.shape != (g.rcb_count * k, chunk.size):
        raise ValueError(f"match mask shape {got.shape}, expected "
                         f"{(g.rcb_count * k, chunk.size)}")
    runs, ends = reference.spans(chunk)
    counts = ends - runs
    upto = counts.cumsum()  # hits of the keys up to and including each
    flat = got.reshape(-1)  # a view: match_masks returns a new C array
    diverged = np.zeros(chunk.size, dtype=bool)
    lo = 0
    while lo < chunk.size:
        hi = max(lo + 1, int(upto.searchsorted(
            upto[lo] - counts[lo] + _HIT_BUDGET, "right")))
        words = reference.hits(runs[lo:hi], counts[lo:hi])
        # Each hit word's slot bit and unit row, rcb * k + pos, as the word
        # map of ``rcam_sim.geometry`` places them.  numpy divides by a
        # scalar fast but takes remainders slowly, and a fresh temporary
        # costs more than the arithmetic, so the remainders are a mask
        # (RCU_SLOTS is a power of two, words >= 0) and a subtraction, and
        # the flat index into ``got`` is built in place.
        q = words // k  # rcb * RCU_SLOTS + slot
        bit = (q & (RCU_SLOTS - 1)).astype(np.uint32)
        np.left_shift(np.uint32(1), bit, out=bit)
        column = np.arange(lo, hi).repeat(counts[lo:hi])
        cell = q // RCU_SLOTS  # rcb
        cell -= q
        cell *= k
        cell += words  # words - (q - rcb) * k = rcb * k + pos
        cell *= chunk.size
        cell += column
        # A key's hit words are distinct, so each (unit, bit) of a column is
        # subtracted at most once, and only when it was set.
        held = flat.take(cell)
        held &= bit
        np.subtract.at(flat, cell, held)
        diverged[column[held == 0]] = True
        lo = hi
    diverged |= np.bitwise_or.reduce(got, axis=0) != 0
    if not diverged.any():
        return None
    i = np.flatnonzero(diverged)[first[diverged].argmin()]
    # the key searched again: its matches in word order, XOR its hits
    diff = np.unpackbits(byte_slices(system.match_masks(chunk[i:i + 1])[:, 0]),
                         bitorder="little")
    diff = diff.reshape(-1, k, RCU_SLOTS).transpose(0, 2, 1).ravel()
    diff[reference.hits(runs[i:i + 1], counts[i:i + 1])] ^= 1
    return first[i], int(chunk[i]), int(diff.argmax())
