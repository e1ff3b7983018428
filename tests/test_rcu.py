from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rcam_sim import rcu
from rcam_sim.geometry import ARCHITECTURES, geometry_for
from rcam_sim.oracle import ReferenceCam
from rcam_sim.rcu import RcamArray

from cam_helpers import apply_words, column_occupancy, poke_word, search


def _array():
    return RcamArray(geometry_for("s2", 1024, 8))


def _hits(match):
    return np.flatnonzero(match).tolist()


def test_single_cell_write_and_undo():
    arr = _array()
    poke_word(arr, 227, 5, 1)  # an 8-bit word touches one cell
    assert np.count_nonzero(arr.cells) == 1
    assert _hits(search(arr, 5)) == [227]
    poke_word(arr, 227, 5, 0)
    assert not arr.cells.any()


def test_search_reads_one_row():
    arr = _array()
    assert not arr.slice_match(0, 0).any()
    poke_word(arr, 3, 5, 1)
    assert _hits(arr.slice_match(0, 5)) == [3]
    assert not arr.slice_match(0, 6).any()


def test_write_range_errors():
    arr = _array()
    with pytest.raises(ValueError):
        arr.slice_match(0, 256)
    with pytest.raises(ValueError):
        arr.slice_match(1, 0)  # an 8-bit word has one slice
    with pytest.raises(ValueError):
        arr.search_batch(np.array([256], dtype=np.uint64))
    with pytest.raises(ValueError):
        arr.search_batch(np.zeros((2, 2), dtype=np.uint64))


def _replay(ops):
    """Apply (word, value, bit) cell writes; return the array and the cells
    a direct assignment oracle expects."""
    arr = _array()
    cells = {}
    for word, value, bit in ops:
        poke_word(arr, word, value, bit)
        cells[(word, value)] = bit
    return arr, cells


def test_seeded_writes_match_replay_oracle():
    rng = np.random.default_rng(20240117)
    ops = [(int(rng.integers(1024)), int(rng.integers(256)), int(rng.integers(2)))
           for _ in range(1000)]
    arr, cells = _replay(ops)
    matrix = np.zeros((256, 1024), dtype=bool)
    for (word, value), bit in cells.items():
        matrix[value, word] = bit
    for row in range(256):
        assert np.array_equal(arr.slice_match(0, row), matrix[row])


def test_managed_population_vs_linear_scan():
    rng = np.random.default_rng(7)
    stored = rng.integers(0, 256, size=32)
    arr = _array()
    for word, value in enumerate(stored):  # one word per slot of RCU 0
        poke_word(arr, word * 32, int(value), 1)
    for key in range(256):
        want = [32 * word for word, v in enumerate(stored) if v == key]
        assert _hits(search(arr, key)) == want


def test_search_is_pure():
    g = geometry_for("s2", 1024, 16)
    arr = RcamArray(g)
    arr.apply_full_table(np.arange(1024, dtype=np.uint64) * 17 % 65536, 1)
    before = arr.cells.copy()
    search(arr, 12345)
    arr.search_batch(np.arange(64, dtype=np.uint64))
    arr.slice_match(0, 99)
    assert np.array_equal(arr.cells, before)


def test_a_word_hits_its_mapped_cell():
    g = geometry_for("s2", 1024, 8)
    arr = RcamArray(g)
    # word (rcb=0, j=7, i=3) = 7*32 + 3 = 227: RCU (0, 3), row 0xAB, slot 7
    table = np.zeros(1024, dtype=np.uint64)
    table[227] = 0xAB
    arr.apply_full_table(table, 1)
    assert np.flatnonzero(arr.cells[:, 0xAB]).tolist() == [3]
    assert arr.cells[3, 0xAB] == 1 << 7
    assert _hits(search(arr, 0xAB)) == [227]


def test_shared_cells_all_land():
    # Equal words of one RCU share a (row, unit) cell and differ only in
    # the slot bit; a full-table write must set every slot and an erase
    # must clear every one.
    g = geometry_for("s3", 8192, 16)
    arr = RcamArray(g)
    payload = np.full(g.depth_n, 0x4242, dtype=np.uint64)
    arr.apply_full_table(payload, 1)
    assert (arr.cells[:, 0x42] == 0xFFFFFFFF).all()
    assert np.count_nonzero(arr.cells) == g.rcu_count
    assert search(arr, 0x4242).all()
    arr.apply_full_table(payload, 0)
    assert not arr.cells.any()


def test_and_combining_suppresses_partial_match():
    g = geometry_for("s2", 1024, 16)
    arr = RcamArray(g)
    poke_word(arr, 10, 0x12AB, 1)
    assert _hits(search(arr, 0x12AB)) == [10]
    # same low byte, different high byte: no match anywhere
    assert not search(arr, 0x34AB).any()
    assert not search(arr, 0x12CD).any()


def test_full_scan_matches_oracle_all_keys_w16():
    g = geometry_for("s2", 1024, 16)
    arr = RcamArray(g)
    rng = np.random.default_rng(123)
    payload = rng.integers(0, 1 << 16, size=1024).astype(np.uint64)
    arr.apply_full_table(payload, 1)
    ref = ReferenceCam(1024, 16)
    ref.load_full(payload)
    keys = np.arange(1 << 16, dtype=np.uint64)
    for start in range(0, 1 << 16, 8192):
        chunk = keys[start:start + 8192]
        assert np.array_equal(arr.search_batch(chunk), ref.search_batch(chunk))


def test_width_and_law():
    # global match == AND of per-slice matches re-indexed to global order
    g = geometry_for("s2", 2048, 32)
    arr = RcamArray(g)
    rng = np.random.default_rng(5)
    payload = rng.integers(0, 1 << 32, size=2048).astype(np.uint64)
    arr.apply_full_table(payload, 1)
    for key in map(int, rng.integers(0, 1 << 32, size=8)):
        acc = np.ones(g.depth_n, dtype=bool)
        for c in range(g.slices):
            sub = (key >> (8 * c)) & 0xFF
            per_slice = arr.slice_match(c, sub)
            # each slice behaves like an 8-bit CAM over its own sub-words
            want = (payload >> np.uint64(8 * c)) & np.uint64(0xFF) == sub
            assert np.array_equal(per_slice, want)
            acc &= per_slice
        assert np.array_equal(search(arr, key), acc)


def test_column_occupancy_flags_skipped_erase():
    g = geometry_for("s2", 1024, 8)
    arr = RcamArray(g)
    payload = np.arange(1024, dtype=np.uint64) % 256
    arr.apply_full_table(payload, 1)
    assert column_occupancy(arr).max() == 1
    # overwrite word 40 without erasing its old value first
    poke_word(arr, 40, 0x77, 1)
    assert column_occupancy(arr).max() == 2
    # the stale bit is a detectable false positive
    old_key = int(payload[40])
    assert bool(search(arr, old_key)[40])


@given(st.lists(st.tuples(st.integers(0, 1023), st.integers(0, 255),
                          st.integers(0, 1)), max_size=60))
@settings(max_examples=80)
def test_write_replay_property(ops):
    arr, cells = _replay(ops)
    for (word, value), bit in cells.items():
        assert arr.slice_match(0, value)[word] == bit


@given(arch=st.sampled_from(ARCHITECTURES),
       depth=st.sampled_from([1024, 2048]),
       width=st.sampled_from([8, 16, 32, 64]),
       seed=st.integers(0, 2 ** 32 - 1),
       fill=st.sampled_from(["clear", "set", "random", "sparse"]),
       distinct=st.sampled_from([1, 3, None]),
       bit=st.integers(0, 1),
       block=st.sampled_from([1, 256, rcu._BLOCK_WORDS]))
@settings(max_examples=40, deadline=None)
def test_scatter_matches_the_per_word_model(arch, depth, width, seed, fill,
                                            distinct, bit, block):
    # Any grid state: writes land on set bits and erases on clear ones, and
    # with few distinct values many equal words share one cell.  Small
    # blocks split these tables the way larger ones are split.
    g = geometry_for(arch, depth, width)
    rng = np.random.default_rng(seed)
    shape = (g.rcu_count, 256)
    cells = {"clear": np.zeros(shape, dtype=np.uint32),
             "set": np.full(shape, 0xFFFFFFFF, dtype=np.uint32),
             "random": rng.integers(0, 1 << 32, shape, dtype=np.uint32),
             "sparse": (rng.integers(0, 1 << 32, shape, dtype=np.uint32)
                        & rng.integers(0, 1 << 32, shape, dtype=np.uint32)
                        & rng.integers(0, 1 << 32, shape, dtype=np.uint32))
             }[fill]
    values = rng.integers(0, g.word_mask, depth, dtype=np.uint64,
                          endpoint=True)
    if distinct is not None:
        values = rng.choice(values[:distinct], depth)
    arr = RcamArray(g)
    arr.cells[:] = cells
    with mock.patch.object(rcu, "_BLOCK_WORDS", block):
        arr.apply_full_table(values, bit)
    want = apply_words(g, cells, enumerate(map(int, values)), bit)
    assert np.array_equal(arr.cells, want)
