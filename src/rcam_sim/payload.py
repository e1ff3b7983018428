"""Payload generation and file I/O.

Generated payloads come from SplitMix64, a well-known 64-bit mixer that is
index-addressable: word i depends only on (seed, i), so engines and oracle
can be fed independently and sweeps can regenerate any word without
replaying a stream.  Seed 0 is reserved for the smoke payload
``word[i] = i mod 2^W``.

File format: raw binary of exactly N*W/8 bytes; each word is a little-endian
W-bit field, fields in index order.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .geometry import CamGeometry

_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_M1 = np.uint64(0xBF58476D1CE4E5B9)
_M2 = np.uint64(0x94D049BB133111EB)


class PayloadError(ValueError):
    """Raised for malformed payload files or arguments."""


def splitmix64(values: np.ndarray) -> np.ndarray:
    """Vectorized SplitMix64 finalizer over uint64 inputs (wraps mod 2^64)."""
    with np.errstate(over="ignore"):
        z = np.asarray(values, dtype=np.uint64) + _GAMMA
        z = (z ^ (z >> np.uint64(30))) * _M1
        z = (z ^ (z >> np.uint64(27))) * _M2
        return z ^ (z >> np.uint64(31))


def generate_payload(seed: int, geometry: CamGeometry) -> np.ndarray:
    """Deterministic full-table payload of N words masked to W bits."""
    n = geometry.depth_n
    mask = np.uint64(geometry.word_mask)
    if seed == 0:
        return (np.arange(n, dtype=np.uint64) & mask)
    base = np.uint64(seed & 0xFFFFFFFFFFFFFFFF) + np.arange(n, dtype=np.uint64) * _GAMMA
    return splitmix64(base) & mask


def payload_bytes(geometry: CamGeometry) -> int:
    return geometry.depth_n * geometry.word_width_w // 8

def save_payload(path, payload, geometry: CamGeometry) -> None:
    arr = np.asarray(payload, dtype=np.uint64)
    if arr.shape != (geometry.depth_n,):
        raise PayloadError(f"payload must hold {geometry.depth_n} words")
    nbytes = geometry.word_width_w // 8
    out = np.zeros((geometry.depth_n, nbytes), dtype=np.uint8)
    for b in range(nbytes):
        out[:, b] = (arr >> np.uint64(8 * b)) & np.uint64(0xFF)
    Path(path).write_bytes(out.tobytes())


def load_payload(path, geometry: CamGeometry) -> np.ndarray:
    """Parse a raw payload file; the size must match the geometry exactly.

    At most one byte past the expected size is read, so an endless file
    such as ``/dev/zero`` is refused as too long, not read to exhaustion.
    """
    expected = payload_bytes(geometry)
    with open(path, "rb") as f:  # missing/unreadable paths raise OSError
        data = f.read(expected + 1)
    if len(data) < expected:
        raise PayloadError(
            f"payload file too short: {len(data)} bytes, need {expected}")
    if len(data) > expected:
        raise PayloadError(
            f"payload file too long: more than {expected} bytes")
    nbytes = geometry.word_width_w // 8
    raw = np.frombuffer(data, dtype=np.uint8).reshape(geometry.depth_n, nbytes)
    words = np.zeros(geometry.depth_n, dtype=np.uint64)
    for b in range(nbytes):
        words |= raw[:, b].astype(np.uint64) << np.uint64(8 * b)
    return words
