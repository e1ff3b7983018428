"""The erase store and the erase protocol the engines build on it.

One store holds the last word written at each global index; the three
erase-RAM organizations are reshapes of it along the word map.  These tests
check the store's round trip, the per-architecture layouts as seen through
the word map, and the read-before-write protocol through public engine
behaviour.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rcam_sim.engines import EngineError, RcamEngine
from rcam_sim.erase_store import EraseStore
from rcam_sim.geometry import geometry_for, map_word_index
from rcam_sim.oracle import ReferenceCam, equivalence_check
from rcam_sim.payload import generate_payload

from cam_helpers import column_occupancy, search


def _rows(engine, row_words):
    """The store of ``engine`` as rows of ``row_words`` words."""
    return engine.eram.stored_words().reshape(-1, row_words)


def test_per_unit_swap_basics():
    # s1 incremental update: read the old word, erase it, store the new one
    g = geometry_for("s1", 1024, 8)
    engine = RcamEngine(g)
    assert not engine.eram.stored_words().any()  # fresh tables read as zero
    engine.update_word(3, 0xAB)
    engine.update_word(3, 0xCD)
    assert engine.eram.stored_words()[3] == 0xCD
    assert not search(engine.cam, 0xAB)[3]  # the old word was erased
    assert search(engine.cam, 0xCD)[3]
    with pytest.raises(EngineError):
        engine.update_word(1024, 0)
    with pytest.raises(EngineError):
        engine.update_word(0, 256)


def test_per_unit_swap_replay():
    g = geometry_for("s1", 1024, 8)
    engine = RcamEngine(g)
    log = np.zeros(1024, dtype=np.uint64)
    engine.update(log)  # a whole table of zeros, as the reference loads
    rng = np.random.default_rng(31337)
    for _ in range(2000):
        index, value = int(rng.integers(1024)), int(rng.integers(256))
        engine.update_word(index, value)
        log[index] = value
    assert np.array_equal(engine.eram.stored_words(), log)
    reference = ReferenceCam(1024, 8)
    reference.load_full(log)
    assert equivalence_check(engine.cam, reference, np.arange(256)).passed


def test_per_unit_bank_round_trip():
    g = geometry_for("s1", 1024, 16)
    bank = EraseStore(g)
    words = np.random.default_rng(1).integers(0, 1 << 16, size=1024).astype(np.uint64)
    bank.store_words(words)
    assert np.array_equal(bank.stored_words(), words)
    bank.stored_words()[0] ^= np.uint64(1)  # reads are copies
    assert np.array_equal(bank.stored_words(), words)
    # per-unit table of word v: RCU v//32, slot v%32, one byte per slice
    engine = RcamEngine(g)
    engine.update(words)
    v = 517
    for c in range(g.slices):
        sub = (int(words[v]) >> (8 * c)) & 0xFF
        # the s1 unit of word v is v // 32, its slices adjacent rows
        assert engine.cam.cells[(v // 32) * g.slices + c, sub] == 1 << (v % 32)


def test_central_load_returns_old_row():
    # s2: 2,048 x 256-bit rows; the erase pass reads the previous table
    g = geometry_for("s2", 65536, 8)
    engine = RcamEngine(g)
    assert _rows(engine, g.words_per_bus_beat).shape == (2048, 32)
    first, second = generate_payload(1, g), generate_payload(2, g)
    engine.update(first)
    assert np.array_equal(engine.eram.stored_words(), first)
    engine.update(second)
    assert np.array_equal(_rows(engine, 32)[0], second[:32])
    reference = ReferenceCam(65536, 8)
    reference.load_full(second)
    assert equivalence_check(engine.cam, reference, first[:64]).passed


def test_central_two_pass_replay():
    g = geometry_for("s2", 2048, 8)
    engine = RcamEngine(g)
    first, second = generate_payload(17, g), generate_payload(18, g)
    engine.update(first)
    seen = []

    def probe(stage, eng):
        # erase pass done: the store holds the new rows, the CAM is empty
        seen.append(np.array_equal(eng.eram.stored_words(), second))
        assert not eng.cam.cells.any()

    engine.update(second, probe=probe)
    assert seen == [True]
    reference = ReferenceCam(2048, 8)
    reference.load_full(second)
    keys = np.concatenate([first[:100], second[:100]])
    assert equivalence_check(engine.cam, reference, keys).passed


def test_hpart_fill_order():
    g = geometry_for("s3", 65536, 8)
    p, wb, k = g.partitions_p, g.words_per_bus_beat, g.words_per_beat_k
    assert (p, g.erase_row_count) == (8, 256)
    # beat b lands in partition b % P of wide row b // P
    for b in (0, 1, 7, 8, 9, g.beat_count - 1):
        words = np.arange(b * wb, (b + 1) * wb)
        assert set(words // k) == {b // p}
        assert set((words % k) // wb) == {b % p}
    engine = RcamEngine(g)
    payload = generate_payload(4, g)
    engine.update(payload)
    wide = engine.eram.stored_words().reshape(g.erase_row_count, p, wb)
    assert np.array_equal(wide[1, 0], payload[8 * wb:9 * wb])


@pytest.mark.parametrize("depth,width", [(65536, 8), (8192, 64), (4096, 16)])
def test_hpart_regrouping_oracle(depth, width):
    g = geometry_for("s3", depth, width)
    engine = RcamEngine(g)
    payload = generate_payload(depth + width, g)
    engine.update(payload)
    stream = payload.reshape(g.beat_count, g.words_per_bus_beat)
    rows = _rows(engine, g.words_per_beat_k)
    p, wb = g.partitions_p, g.words_per_bus_beat
    for row in range(g.erase_row_count):
        regrouped = stream[row * p:(row + 1) * p].reshape(p * wb)
        assert np.array_equal(rows[row], regrouped)


def test_hpart_wide_read_is_concatenation():
    g = geometry_for("s3", 8192, 64)
    store = EraseStore(g)
    assert not store.stored_words().any()  # fresh store reads zero
    wb, k = g.words_per_bus_beat, g.words_per_beat_k
    words = np.arange(g.depth_n, dtype=np.uint64)
    store.store_words(words)
    wide = store.stored_words().reshape(-1, k)[0]
    beats = [words[b * wb:(b + 1) * wb] for b in range(g.partitions_p)]
    assert np.array_equal(wide, np.concatenate(beats))


@pytest.mark.parametrize("arch,depth,width", [
    ("s2", 1024, 8), ("s2", 1024, 64), ("s3", 8192, 8), ("s3", 1024, 64),
])
def test_beat_word_consistency(arch, depth, width):
    # word v occupies field (v mod k) of row (v div k) for the store's own k
    g = geometry_for(arch, depth, width)
    payload = np.arange(depth, dtype=np.uint64) & np.uint64(g.word_mask)
    engine = RcamEngine(g)
    engine.update(payload)
    k = g.words_per_beat_k
    rows = _rows(engine, k)
    for v in range(0, depth, max(1, depth // 97)):
        assert rows[v // k][v % k] == payload[v]
        rcb, j, i = map_word_index(g, v)
        assert v // k == rcb * 32 + j  # row index doubles as (rcb, slot)


def test_read_before_write_call_order():
    # the erase pass clears exactly the previous table, so consecutive
    # updates leave one set bit per column and no stale match
    g = geometry_for("s3", 8192, 8)
    engine = RcamEngine(g)
    first, second = generate_payload(1, g), generate_payload(2, g)
    engine.update(first)
    engine.update(second)
    assert column_occupancy(engine.cam).max() == 1
    reference = ReferenceCam(8192, 8)
    reference.load_full(second)
    assert equivalence_check(engine.cam, reference, first[:128]).passed


@given(st.sampled_from([8, 16, 32, 64]),
       st.lists(st.integers(0, 2 ** 64 - 1), min_size=32, max_size=32))
@settings(max_examples=60)
def test_store_round_trip_property(width, raw):
    g = geometry_for("s1", 32, width)
    words = np.array([w & g.word_mask for w in raw], dtype=np.uint64)
    store = EraseStore(g)
    store.store_words(words)
    assert np.array_equal(store.stored_words(), words)
