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

from .geometry import M10K_BITS, RCU_SLOTS, SUB_WORD_BITS, CamGeometry

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


def m10k_report(geometry: CamGeometry) -> ResourceReport:
    """Block counts of one geometry: its RCUs, and its erase memory."""
    rcu = geometry.rcu_count
    if geometry.architecture == "s1":
        erase = rcu
        # Each table holds 32 sub-words = 256 bits of an 8,192-bit block.
        utilization = RCU_SLOTS * SUB_WORD_BITS / M10K_BITS
    else:
        erase = math.ceil(geometry.table_bits / M10K_BITS)
        utilization = geometry.table_bits / (erase * M10K_BITS)
    return ResourceReport(
        architecture=geometry.architecture, depth_n=geometry.depth_n,
        word_width_w=geometry.word_width_w, rcu_blocks=rcu, erase_blocks=erase,
        erase_ram_utilization=utilization,
        saving_vs_s1=1.0 - (rcu + erase) / (2 * rcu))
