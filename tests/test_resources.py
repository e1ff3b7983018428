import pytest

from rcam_sim.geometry import GeometryError
from rcam_sim.resources import (DEVICE_M10K_BLOCKS, REFERENCE_PLACE_AND_ROUTE,
                                m10k_report)

STANDARD_GEOMETRIES = [(65536, 8), (32768, 16), (16384, 32), (8192, 64)]


@pytest.mark.parametrize("shape", STANDARD_GEOMETRIES)
def test_advanced_designs_use_2112_blocks(shape):
    for arch in ("s2", "s3"):
        report = m10k_report(shape, arch)
        assert report.rcu_blocks == 2048
        assert report.erase_blocks == 64
        assert report.total_m10k == 2112
        assert report.device_fraction == pytest.approx(0.74, abs=0.005)


def test_traditional_flagship_doubles_blocks():
    report = m10k_report((65536, 8), "s1")
    assert report.rcu_blocks == report.erase_blocks == 2048
    assert report.total_m10k == 4096


@pytest.mark.parametrize("shape", STANDARD_GEOMETRIES + [(64, 8), (1024, 32)])
def test_s1_doubling_law(shape):
    report = m10k_report(shape, "s1")
    assert report.total_m10k == 2 * report.rcu_blocks


def test_single_unit_costs_two_blocks():
    assert m10k_report((32, 8), "s1").total_m10k == 2


def test_tiny_s2_geometry():
    report = m10k_report((64, 8), "s2")
    assert report.rcu_blocks == 2 and report.erase_blocks == 1
    assert report.saving_vs_s1 == pytest.approx(0.25)
    assert m10k_report((64, 8), "s1").total_m10k == 4


def test_flagship_saving():
    adv = m10k_report((65536, 8), "s2")
    s1 = m10k_report((65536, 8), "s1")
    saving = adv.saving_vs_s1
    assert saving == pytest.approx(0.484375)
    assert abs(saving - 0.484) < 0.001  # matches the quoted 48.4%
    assert saving == pytest.approx(1 - adv.total_m10k / s1.total_m10k)
    assert s1.saving_vs_s1 == 0.0


def test_erase_ram_utilization():
    s1 = m10k_report((65536, 8), "s1")
    assert s1.erase_ram_utilization == pytest.approx(256 / 8192)
    adv = m10k_report((65536, 8), "s2")
    assert adv.erase_ram_utilization == pytest.approx(1.0)


def test_saving_converges_to_31_64ths_from_below():
    # erase blocks shrink to 1/32 of the CAM blocks, never less
    limit = 31 / 64
    previous = -1.0
    for exp in range(6, 17):
        depth = 1 << exp
        saving = m10k_report((depth, 8), "s2").saving_vs_s1
        assert saving <= limit + 1e-12
        assert saving >= previous - 1e-12
        previous = saving
    assert m10k_report((1 << 16, 8), "s2").saving_vs_s1 == pytest.approx(limit)


def test_divisibility_errors():
    with pytest.raises(GeometryError):
        m10k_report((100, 8), "s1")
    with pytest.raises(GeometryError):
        m10k_report((64, 12), "s2")
    with pytest.raises(GeometryError):
        m10k_report((64, 8), "s9")


def test_reference_annotations_ride_along():
    d = m10k_report((65536, 8), "s2").to_dict()
    assert d["reference_place_and_route"]["fmax_mhz"] == 134.2
    assert (8192, 64) in REFERENCE_PLACE_AND_ROUTE
    assert "reference_place_and_route" not in m10k_report((64, 8), "s2").to_dict()
    assert DEVICE_M10K_BLOCKS == 2854
