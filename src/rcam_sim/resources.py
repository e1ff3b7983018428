"""Closed-form embedded-memory accounting (M10K blocks).

The CAM body always takes (N/32)*(W/8) blocks, one per RCU.  The erase side
depends on the organization: the traditional design pairs every RCU with its
own block (of which a 32x8-bit table uses just 256/8,192 = 3.125%), while the
centralized organizations pack the whole N*W-bit table into ceil(N*W/8,192)
blocks at full utilization.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .geometry import M10K_BITS, RCU_SLOTS, SUB_WORD_BITS, GeometryError

# Device capacity back-derived from a 74% utilization at 2,112 blocks.
DEVICE_M10K_BLOCKS = 2854

# Reference place-and-route figures for the four standard geometries on the
# Arria V part used for validation; informational only, never computed.
REFERENCE_PLACE_AND_ROUTE = {
    (65536, 8): {"adaptive_logic_modules": 109, "fmax_mhz": 134.2},
    (32768, 16): {"adaptive_logic_modules": 16773, "fmax_mhz": 134.9},
    (16384, 32): {"adaptive_logic_modules": 16617, "fmax_mhz": 135.3},
    (8192, 64): {"adaptive_logic_modules": 19017, "fmax_mhz": 135.2},
}


@dataclass(frozen=True)
class ResourceReport:
    architecture: str
    depth_n: int
    word_width_w: int
    rcu_blocks: int
    erase_blocks: int
    erase_ram_utilization: float  # payload bits / erase block capacity
    saving_vs_s1: float

    @property
    def total_m10k(self) -> int:
        return self.rcu_blocks + self.erase_blocks

    @property
    def device_fraction(self) -> float:
        return self.total_m10k / DEVICE_M10K_BLOCKS

    def to_dict(self) -> dict:
        d = {
            "architecture": self.architecture,
            "depth_n": self.depth_n,
            "word_width_w": self.word_width_w,
            "rcu_blocks": self.rcu_blocks,
            "erase_blocks": self.erase_blocks,
            "total_m10k": self.total_m10k,
            "device_fraction": self.device_fraction,
            "erase_ram_utilization": self.erase_ram_utilization,
            "saving_vs_s1": self.saving_vs_s1,
        }
        ref = REFERENCE_PLACE_AND_ROUTE.get((self.depth_n, self.word_width_w))
        if ref is not None:
            d["reference_place_and_route"] = dict(ref)
        return d


def _blocks(depth_n: int, word_width_w: int, architecture: str) -> tuple[int, int]:
    if depth_n % RCU_SLOTS:
        raise GeometryError(f"depth {depth_n} not divisible by {RCU_SLOTS}")
    if word_width_w % SUB_WORD_BITS:
        raise GeometryError(f"width {word_width_w} not a multiple of 8")
    rcu = (depth_n // RCU_SLOTS) * (word_width_w // SUB_WORD_BITS)
    if architecture == "s1":
        return rcu, rcu
    if architecture in ("s2", "s3"):
        return rcu, math.ceil(depth_n * word_width_w / M10K_BITS)
    raise GeometryError(f"unknown architecture {architecture!r}")


def m10k_report(shape: tuple[int, int], architecture: str) -> ResourceReport:
    """Block counts for one architecture at one (depth, width) table shape."""
    depth_n, word_width_w = shape
    rcu, erase = _blocks(depth_n, word_width_w, architecture)
    table_bits = depth_n * word_width_w
    if architecture == "s1":
        # Each table holds 32 sub-words = 256 bits of an 8,192-bit block.
        utilization = RCU_SLOTS * SUB_WORD_BITS / M10K_BITS
    else:
        utilization = table_bits / (erase * M10K_BITS)
    s1_total = 2 * rcu
    return ResourceReport(
        architecture=architecture, depth_n=depth_n, word_width_w=word_width_w,
        rcu_blocks=rcu, erase_blocks=erase,
        erase_ram_utilization=utilization,
        saving_vs_s1=1.0 - (rcu + erase) / s1_total)


def memory_saving(advanced: ResourceReport, baseline: ResourceReport) -> float:
    """Fraction of blocks saved by ``advanced`` relative to ``baseline``."""
    if (advanced.depth_n, advanced.word_width_w) != (baseline.depth_n,
                                                     baseline.word_width_w):
        raise GeometryError("reports cover different geometries")
    return 1.0 - advanced.total_m10k / baseline.total_m10k
