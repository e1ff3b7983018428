"""Brute-force reference CAM: ground truth for every functional property."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Bytes of one (keys, N) boolean match array that equivalence_check builds
# per side at a time: verification memory stays flat as keys grow.
_COMPARE_BYTES = 1 << 24


class ReferenceCam:
    """Plain word table searched by linear scan, O(N) per key by design."""

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

    def update(self, index: int, value: int) -> None:
        if not 0 <= index < self.depth_n:
            raise ValueError(f"index {index} out of range [0, {self.depth_n})")
        if not 0 <= value <= self.word_mask:
            raise ValueError(f"value does not fit {self.word_width_w} bits")
        self.words[index] = value
        self.occupied[index] = True

    def load_full(self, payload) -> None:
        arr = np.asarray(payload, dtype=np.uint64)
        if arr.shape != (self.depth_n,):
            raise ValueError(f"payload must hold {self.depth_n} words")
        self.words[:] = arr
        self.occupied[:] = True

    def search(self, key: int) -> np.ndarray:
        if not 0 <= key <= self.word_mask:
            raise ValueError(f"key does not fit {self.word_width_w} bits")
        return (self.words == self.words.dtype.type(key)) & self.occupied

    def search_batch(self, keys) -> np.ndarray:
        keys = np.asarray(keys, dtype=np.uint64)
        if keys.size and int(keys.max()) > self.word_mask:
            raise ValueError(f"key wider than {self.word_width_w} bits")
        keys = keys.astype(self.words.dtype)
        return (self.words[None, :] == keys[:, None]) & self.occupied[None, :]


@dataclass(frozen=True)
class EquivalenceResult:
    passed: bool
    keys_checked: int
    first_divergence: tuple[int, int] | None  # (key, word index)


def equivalence_check(system, reference: ReferenceCam, keys) -> EquivalenceResult:
    """Compare a CAM system against the reference over a key sample.

    ``system`` needs a ``search_batch`` returning boolean match vectors and a
    ``geometry``; on the first diverging (key, index) the verdict carries it.
    Keys are compared in chunks of at most ``_COMPARE_BYTES // N``.
    """
    g = system.geometry
    if (g.depth_n, g.word_width_w) != (reference.depth_n, reference.word_width_w):
        raise ValueError(
            f"shape mismatch: system {g.depth_n}x{g.word_width_w}, "
            f"reference {reference.depth_n}x{reference.word_width_w}")
    keys = np.asarray(keys, dtype=np.uint64)
    step = max(1, _COMPARE_BYTES // g.depth_n)
    for start in range(0, keys.size, step):
        chunk = keys[start:start + step]
        got = system.search_batch(chunk)
        want = reference.search_batch(chunk)
        if got.shape != want.shape:
            raise ValueError(
                f"match shape mismatch: {got.shape} vs {want.shape}")
        diff = got != want
        if diff.any():
            ki, wi = np.argwhere(diff)[0]
            return EquivalenceResult(False, keys.size,
                                     (int(chunk[ki]), int(wi)))
    return EquivalenceResult(True, keys.size, None)
