import numpy as np
import pytest

from rcam_sim.engines import build_engine
from rcam_sim.geometry import geometry_for
from rcam_sim.oracle import ReferenceCam, equivalence_check
from rcam_sim.payload import generate_payload


def test_empty_reference_matches_nothing():
    ref = ReferenceCam(64, 8)
    assert not ref.search(0).any()
    assert not ref.search(255).any()


def test_store_overwrite_and_range():
    ref = ReferenceCam(64, 8)
    ref.update(3, 200)
    assert np.flatnonzero(ref.search(200)).tolist() == [3]
    ref.update(3, 201)
    assert not ref.search(200).any()
    assert np.flatnonzero(ref.search(201)).tolist() == [3]
    with pytest.raises(ValueError):
        ref.update(64, 0)
    with pytest.raises(ValueError):
        ref.update(0, 256)


def test_duplicates_set_two_bits():
    ref = ReferenceCam(64, 8)
    ref.update(10, 7)
    ref.update(20, 7)
    assert np.flatnonzero(ref.search(7)).tolist() == [10, 20]


def test_double_entry_against_independent_scan():
    # redundant implementation: plain python loop over stored tuples
    rng = np.random.default_rng(2)
    ref = ReferenceCam(500, 16)
    stored = {}
    for _ in range(900):
        idx, val = int(rng.integers(500)), int(rng.integers(1 << 16))
        ref.update(idx, val)
        stored[idx] = val
    for key in map(int, rng.integers(0, 1 << 16, size=64)):
        expect = sorted(i for i, v in stored.items() if v == key)
        assert np.flatnonzero(ref.search(key)).tolist() == expect


def test_update_order_independence_for_full_tables():
    payload = np.random.default_rng(3).integers(0, 256, size=128).astype(np.uint64)
    a = ReferenceCam(128, 8)
    a.load_full(payload)
    b = ReferenceCam(128, 8)
    for idx in np.random.default_rng(4).permutation(128):
        b.update(int(idx), int(payload[idx]))
    keys = np.arange(256, dtype=np.uint64)
    assert np.array_equal(a.search_batch(keys), b.search_batch(keys))


def test_equivalence_check_pass_and_fault_injection():
    g = geometry_for("s2", 1024, 8)
    engine = build_engine(g)
    payload = generate_payload(6, g)
    engine.update(payload)
    ref = ReferenceCam(1024, 8)
    ref.load_full(payload)
    keys = np.arange(256, dtype=np.uint64)
    assert equivalence_check(engine, ref, keys).passed
    # fault injection: skip the erase for one rewrite
    engine.cam.apply_word(500, (int(payload[500]) + 1) % 256, 1)
    ref.update(500, (int(payload[500]) + 1) % 256)
    verdict = equivalence_check(engine, ref, keys)
    assert not verdict.passed
    assert verdict.first_divergence[1] == 500


def test_equivalence_check_width_mismatch_is_structural():
    g = geometry_for("s2", 1024, 16)
    engine = build_engine(g)
    with pytest.raises(ValueError):
        equivalence_check(engine, ReferenceCam(1024, 8), np.arange(4))
    with pytest.raises(ValueError):
        equivalence_check(engine, ReferenceCam(512, 16), np.arange(4))


def test_chunked_compare_finds_the_same_divergence(monkeypatch):
    # the injected fault of test_skipped_erase_is_detectable, with the stale
    # key last so that it lands in a later chunk
    from rcam_sim import oracle

    g = geometry_for("s2", 1024, 8)
    engine = build_engine(g)
    payload = generate_payload(8, g)
    engine.update(payload)
    victim, stale_key = 321, int(payload[321])
    engine.cam.apply_word(victim, 0x3C, 1)  # write without erasing
    ref = ReferenceCam(1024, 8)
    ref.load_full(payload)
    ref.update(victim, 0x3C)
    keys = np.array([k for k in range(256) if k != stale_key] + [stale_key],
                    dtype=np.uint64)
    whole = equivalence_check(engine, ref, keys)

    monkeypatch.setattr(oracle, "_COMPARE_BYTES", 4 * g.depth_n)
    sizes = []
    search_batch = engine.search_batch
    monkeypatch.setattr(engine, "search_batch",
                        lambda chunk: sizes.append(len(chunk))
                        or search_batch(chunk))
    chunked = equivalence_check(engine, ref, keys)
    assert chunked == whole
    assert chunked.first_divergence == (stale_key, victim)
    assert chunked.keys_checked == 256
    assert sizes == [4] * 64
