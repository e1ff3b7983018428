import numpy as np
import pytest

from rcam_sim.geometry import geometry_for
from rcam_sim.payload import (PayloadError, generate_payload, load_payload,
                              payload_bytes, save_payload, splitmix64)


def test_same_seed_same_payload():
    g = geometry_for("s2", 4096, 16)
    assert np.array_equal(generate_payload(77, g), generate_payload(77, g))


def test_seed_zero_is_the_ramp():
    g = geometry_for("s2", 1024, 8)
    assert np.array_equal(generate_payload(0, g),
                          np.arange(1024, dtype=np.uint64) % 256)
    g64 = geometry_for("s2", 1024, 64)
    assert np.array_equal(generate_payload(0, g64),
                          np.arange(1024, dtype=np.uint64))


def test_different_seeds_differ_almost_everywhere():
    g = geometry_for("s2", 65536, 8)
    a = generate_payload(1, g)
    b = generate_payload(2, g)
    assert (a != b).mean() >= 0.99


def test_payload_respects_width():
    g = geometry_for("s2", 2048, 8)
    assert int(generate_payload(9, g).max()) < 256


def test_splitmix_is_index_addressable():
    g = geometry_for("s2", 4096, 64)
    full = generate_payload(5, g)
    # regenerating any single index reproduces the same word
    gamma = np.uint64(0x9E3779B97F4A7C15)
    for idx in (0, 1, 17, 4095):
        with np.errstate(over="ignore"):
            single = splitmix64(np.uint64(5) + np.uint64(idx) * gamma)
        assert single == full[idx]


def test_round_trip(tmp_path):
    for width in (8, 16, 32, 64):
        g = geometry_for("s2", 1024, width)
        payload = generate_payload(3, g)
        path = tmp_path / f"p{width}.bin"
        save_payload(path, payload, g)
        assert path.stat().st_size == payload_bytes(g)
        assert np.array_equal(load_payload(path, g), payload)


def test_little_endian_field_layout(tmp_path):
    g = geometry_for("s2", 1024, 16)
    payload = np.zeros(1024, dtype=np.uint64)
    payload[0] = 0x1234
    path = tmp_path / "p.bin"
    save_payload(path, payload, g)
    raw = path.read_bytes()
    assert raw[0] == 0x34 and raw[1] == 0x12


def test_short_and_long_files_are_distinct_errors(tmp_path):
    g = geometry_for("s2", 1024, 8)
    short = tmp_path / "short.bin"
    short.write_bytes(b"\x00" * 100)
    with pytest.raises(PayloadError, match="too short"):
        load_payload(short, g)
    long = tmp_path / "long.bin"
    long.write_bytes(b"\x00" * 2000)
    with pytest.raises(PayloadError, match="too long: more than 1024 bytes"):
        load_payload(long, g)


def test_missing_file_raises_oserror(tmp_path):
    g = geometry_for("s2", 1024, 8)
    with pytest.raises(OSError):
        load_payload(tmp_path / "nope.bin", g)
