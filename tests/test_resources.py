import pytest

from rcam_sim.geometry import GeometryError, geometry_for
from rcam_sim.resources import (DEVICE_M10K_BLOCKS, REFERENCE_PLACE_AND_ROUTE,
                                m10k_report)

STANDARD_GEOMETRIES = [(65536, 8), (32768, 16), (16384, 32), (8192, 64)]


def _report(arch, depth, width, bus_width_b=256):
    return m10k_report(geometry_for(arch, depth, width, bus_width_b))


@pytest.mark.parametrize("shape", STANDARD_GEOMETRIES)
def test_advanced_designs_use_2112_blocks(shape):
    for arch in ("s2", "s3"):
        report = _report(arch, *shape)
        assert report.rcu_blocks == 2048
        assert report.erase_blocks == 64
        assert report.total_m10k == 2112
        assert report.device_fraction == pytest.approx(0.74, abs=0.005)


def test_traditional_flagship_doubles_blocks():
    report = _report("s1", 65536, 8)
    assert report.rcu_blocks == report.erase_blocks == 2048
    assert report.total_m10k == 4096


@pytest.mark.parametrize("shape", STANDARD_GEOMETRIES + [(64, 8), (1024, 32)])
def test_s1_doubling_law(shape):
    report = _report("s1", *shape)
    assert report.total_m10k == 2 * report.rcu_blocks


def test_single_unit_costs_two_blocks():
    assert _report("s1", 32, 8).total_m10k == 2


def test_tiny_s2_geometry():
    # an 8-bit bus writes one word a cycle, so 64 words make an s2 table
    report = _report("s2", 64, 8, bus_width_b=8)
    assert report.rcu_blocks == 2 and report.erase_blocks == 1
    assert report.saving_vs_s1 == pytest.approx(0.25)
    assert _report("s1", 64, 8).total_m10k == 4


def test_flagship_saving():
    adv = _report("s2", 65536, 8)
    s1 = _report("s1", 65536, 8)
    saving = adv.saving_vs_s1
    assert saving == pytest.approx(0.484375)
    assert abs(saving - 0.484) < 0.001  # matches the quoted 48.4%
    assert saving == pytest.approx(1 - adv.total_m10k / s1.total_m10k)
    assert s1.saving_vs_s1 == 0.0


def test_erase_ram_utilization():
    s1 = _report("s1", 65536, 8)
    assert s1.erase_ram_utilization == pytest.approx(256 / 8192)
    adv = _report("s2", 65536, 8)
    assert adv.erase_ram_utilization == pytest.approx(1.0)


def test_saving_converges_to_31_64ths_from_below():
    # erase blocks shrink to 1/32 of the CAM blocks, never less; an 8-bit
    # bus makes every depth from 2^6 words an s2 table
    limit = 31 / 64
    previous = -1.0
    for exp in range(6, 17):
        saving = _report("s2", 1 << exp, 8, bus_width_b=8).saving_vs_s1
        assert saving <= limit + 1e-12
        assert saving >= previous - 1e-12
        previous = saving
    assert _report("s2", 1 << 16, 8).saving_vs_s1 == pytest.approx(limit)


def test_s3_counts_its_blocks_like_s2():
    # the partitions split the central memory, not its bits
    for depth, width in STANDARD_GEOMETRIES + [(1024, 64), (8192, 8)]:
        s2, s3 = _report("s2", depth, width), _report("s3", depth, width)
        assert (s3.rcu_blocks, s3.erase_blocks) == (s2.rcu_blocks, s2.erase_blocks)


def test_divisibility_errors():
    # the accounting takes only geometries, which refuse these shapes
    with pytest.raises(GeometryError):
        _report("s1", 100, 8)
    with pytest.raises(GeometryError):
        _report("s2", 64, 12)
    with pytest.raises(GeometryError):
        _report("s9", 64, 8)


def test_reference_annotations_ride_along():
    d = _report("s2", 65536, 8).to_dict()
    assert d["reference_place_and_route"]["fmax_mhz"] == 134.2
    assert (8192, 64) in REFERENCE_PLACE_AND_ROUTE
    assert "reference_place_and_route" not in _report("s2", 1024, 8).to_dict()
    assert DEVICE_M10K_BLOCKS == 2854
