"""Golden event traces for calibrated buses.

The benchmark fingerprint pins ideal-bus traces only.  These hashes pin the
full JSONL trace (summary line plus every beat, erase, write and stall
event) of small updates on calibrated buses: s1 with and without the
one-beat prefetch, s2 and s3 at two stream efficiencies, and s3 at P = 1
(no erase/read overlap), 2 and 8.  Payload values never change the timing,
so the traces come from ``engines.timing``, the schedule alone.
"""

import hashlib

import pytest

from rcam_sim.bus import calibrated_bus
from rcam_sim.engines import timing
from rcam_sim.geometry import geometry_for

# (arch, depth, width, bus width, partitions, eta, overhead, prefetch)
# -> SHA-256.  At a 64-bit bus an s1 beat is consumed in 2 cycles, less than
# the burst latency, so the prefetch cannot hide all of it.
GOLDEN = {
    ("s1", 1024, 64, 256, 8, 1.0, 1.9, False):
        "92d4f3794f22dfe8429480e19fcd5b3cf6d04c6b9542a267193a55563a3c1597",
    ("s1", 1024, 64, 256, 8, 1.0, 1.9, True):
        "5fe3004e7d2338cefc47ee07fd894218469b3ff0bbd8b95dc9b8215ec70e98f6",
    ("s1", 1024, 64, 256, 8, 1.0, 1.25, False):
        "d74bffe68f2a50d9b057ddc1d7c2eeab3eed0d66a8a3dc926940d4f181a5a439",
    ("s1", 1024, 64, 256, 8, 1.0, 1.25, True):
        "5fe3004e7d2338cefc47ee07fd894218469b3ff0bbd8b95dc9b8215ec70e98f6",
    ("s1", 2048, 16, 256, 8, 1.0, 1.25, False):
        "a9d3a6ec9f9753934f0bf5e8ddbe940c3e6668b149b2be6d302586c3f2c81f88",
    ("s1", 1024, 64, 64, 8, 1.0, 1.9, True):
        "c96977ae8b62d70ed847816082695eda7393fca8093a63c7ab4ba59ba3b237f0",
    ("s1", 1024, 64, 64, 8, 1.0, 1.25, True):
        "51bee379a5e068a74b42bff3e4f649bea2592195a5c8ade644c64e9cf0a9521f",
    ("s2", 2048, 16, 256, 8, 0.9, 0.0, False):
        "d1c0e04f6c4784cfc179d126582b23e9fdc1e77cf8eeea53cc4434a91a0b5bbd",
    ("s2", 2048, 16, 256, 8, 0.976, 0.0, False):
        "e3edbd2e4666ddfa1629485db89b6344f4a290173be92d031016007c2ade47bd",
    ("s3", 1024, 64, 256, 1, 0.9, 0.0, False):
        "fad926f9387965b3199d91288cb9ae15a2027aafceb71eacbcea56ed1f5ac0f5",
    ("s3", 1024, 64, 256, 1, 0.976, 0.0, False):
        "11472fdf39830fa8d173d90841a9979555bd16cee5e8f1f818ab8a2392c22dc0",
    ("s3", 1024, 64, 256, 2, 0.9, 0.0, False):
        "8ba18613e7038124a143c7acb6533ce64ed2ab6e1912a5be72db3029ba988efb",
    ("s3", 1024, 64, 256, 2, 0.976, 0.0, False):
        "159b66859ba637085f024eb49bbcf6259213cf6bb944a5a6e6ee406a31b7c098",
    ("s3", 1024, 64, 256, 8, 0.9, 0.0, False):
        "ca23d550bb2b3dd3537bcb807577bed4bcb675f8a4c4dac752f91f695d22ce3e",
    ("s3", 1024, 64, 256, 8, 0.976, 0.0, False):
        "c8db29971ee662b4161a4307b58ff43916e64f0f0e542f7b7ea29ecd802f11a1",
}


def _trace_sha(arch, depth, width, bus_width, partitions, eta, overhead,
               prefetch):
    geometry = geometry_for(arch, depth, width, bus_width, partitions)
    trace = timing(geometry, calibrated_bus(eta, overhead, bus_width),
                   prefetch, record_events=True)
    return hashlib.sha256(trace.to_jsonl().encode("utf-8")).hexdigest()


@pytest.mark.parametrize("case", sorted(GOLDEN), ids=lambda c: "-".join(map(str, c)))
def test_calibrated_trace_is_golden(case):
    assert _trace_sha(*case) == GOLDEN[case]
