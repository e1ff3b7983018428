import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rcam_sim import oracle
from rcam_sim.engines import RcamEngine
from rcam_sim.experiment import search_keys
from rcam_sim.geometry import ARCHITECTURES, geometry_for
from rcam_sim.oracle import ReferenceCam, equivalence_check
from rcam_sim.payload import generate_payload

from cam_helpers import poke_word, scan


def test_search_before_load_full_is_refused():
    ref = ReferenceCam(64, 8)
    for lookup in (ref.search_batch, ref.spans):
        with pytest.raises(ValueError, match="before load_full"):
            lookup(np.array([0], dtype=np.uint64))
    engine = RcamEngine(geometry_for("s1", 64, 8))
    with pytest.raises(ValueError, match="before load_full"):
        equivalence_check(engine.cam, ref, np.arange(4))


def test_store_overwrite_and_range():
    ref = ReferenceCam(64, 8)
    table = np.zeros(64, dtype=np.uint64)
    table[3] = 200
    ref.load_full(table)
    assert np.flatnonzero(scan(ref, 200)).tolist() == [3]
    table[3] = 201
    ref.load_full(table)
    assert not scan(ref, 200).any()
    assert np.flatnonzero(scan(ref, 201)).tolist() == [3]
    with pytest.raises(ValueError):
        ref.load_full(np.zeros(65, dtype=np.uint64))
    with pytest.raises(ValueError):
        ref.load_full(np.full(64, 256, dtype=np.uint64))
    # a refused load leaves the table as it was
    assert np.flatnonzero(scan(ref, 201)).tolist() == [3]


def test_load_full_rejects_words_wider_than_w():
    # 300 at W=8 must not load as 300 & 0xFF
    ref = ReferenceCam(4, 8)
    with pytest.raises(ValueError, match="wider than 8 bits"):
        ref.load_full([1, 2, 300, 4])
    with pytest.raises(ValueError, match="before load_full"):
        ref.search_batch([2])  # nothing was loaded


@pytest.mark.parametrize("depth,width,message", [
    (0, 8, "depth_n must be positive"),
    (-1, 8, "depth_n must be positive"),
    (64, 0, "word_width_w must be a multiple of 8, <= 64"),
    (64, 7, "word_width_w must be a multiple of 8, <= 64"),
    (64, 72, "word_width_w must be a multiple of 8, <= 64"),
])
def test_reference_refuses_bad_shapes(depth, width, message):
    with pytest.raises(ValueError, match=message):
        ReferenceCam(depth, width)


@pytest.mark.parametrize("width", [8, 64])
def test_reference_accepts_the_extreme_widths(width):
    ref = ReferenceCam(64, width)
    table = np.full(64, (1 << width) - 1, dtype=np.uint64)
    ref.load_full(table)
    assert scan(ref, (1 << width) - 1).all()


def test_duplicates_set_two_bits():
    ref = ReferenceCam(64, 8)
    table = np.zeros(64, dtype=np.uint64)
    table[[10, 20]] = 7
    ref.load_full(table)
    assert np.flatnonzero(scan(ref, 7)).tolist() == [10, 20]


def test_double_entry_against_independent_scan():
    # redundant implementation: plain python loop over stored tuples
    rng = np.random.default_rng(2)
    table = np.zeros(500, dtype=np.uint64)
    stored = dict.fromkeys(range(500), 0)
    for _ in range(900):
        idx, val = int(rng.integers(500)), int(rng.integers(1 << 16))
        table[idx] = val
        stored[idx] = val
    ref = ReferenceCam(500, 16)
    ref.load_full(table)
    keys = rng.integers(0, 1 << 16, size=64).astype(np.uint64)
    keys[:32] = table[rng.integers(500, size=32)]  # these hit
    runs, ends = ref.spans(keys)
    counts = ends - runs
    words = ref.hits(runs, counts)
    ends = np.cumsum(counts)
    for key, match, end, count in zip(keys.tolist(), ref.search_batch(keys),
                                      ends.tolist(), counts.tolist()):
        expect = sorted(i for i, v in stored.items() if v == key)
        assert np.flatnonzero(match).tolist() == expect
        assert words[end - count:end].tolist() == expect


def test_update_order_independence_for_full_tables():
    # a table answers the same whatever was loaded and searched before it
    rng = np.random.default_rng(3)
    payload, other = rng.integers(0, 256, size=(2, 128)).astype(np.uint64)
    keys = np.arange(256, dtype=np.uint64)
    a = ReferenceCam(128, 8)
    a.load_full(payload)
    b = ReferenceCam(128, 8)
    b.load_full(other)
    b.spans(keys)  # builds the sorted index of the first table
    b.load_full(payload)
    assert np.array_equal(a.search_batch(keys), b.search_batch(keys))
    spans = a.spans(keys)
    for got, want in zip(spans, b.spans(keys)):
        assert np.array_equal(got, want)
    runs, ends = spans
    assert np.array_equal(a.hits(runs, ends - runs),
                          b.hits(runs, ends - runs))


def test_equivalence_check_pass_and_fault_injection():
    g = geometry_for("s2", 1024, 8)
    engine = RcamEngine(g)
    payload = generate_payload(6, g)
    engine.update(payload)
    ref = ReferenceCam(1024, 8)
    ref.load_full(payload)
    keys = np.arange(256, dtype=np.uint64)
    assert equivalence_check(engine.cam, ref, keys).passed
    # fault injection: skip the erase for one rewrite
    table = payload.copy()
    table[500] = (int(payload[500]) + 1) % 256
    poke_word(engine.cam, 500, int(table[500]), 1)
    ref.load_full(table)
    verdict = equivalence_check(engine.cam, ref, keys)
    assert not verdict.passed
    assert verdict.first_divergence[1] == 500


def test_equivalence_check_width_mismatch_is_structural():
    g = geometry_for("s2", 1024, 16)
    engine = RcamEngine(g)
    with pytest.raises(ValueError):
        equivalence_check(engine.cam, ReferenceCam(1024, 8), np.arange(4))
    with pytest.raises(ValueError):
        equivalence_check(engine.cam, ReferenceCam(512, 16), np.arange(4))


def _spy_searches(monkeypatch, engine):
    """Record the keys of every ``engine.cam.match_masks`` call."""
    calls = []
    match_masks = engine.cam.match_masks
    monkeypatch.setattr(engine.cam, "match_masks",
                        lambda chunk: calls.append(chunk.tolist())
                        or match_masks(chunk))
    return calls


def test_chunked_compare_finds_the_same_divergence(monkeypatch):
    # the injected fault of test_skipped_erase_is_detectable, with the stale
    # key last in the sample
    g = geometry_for("s2", 1024, 8)
    engine = RcamEngine(g)
    payload = generate_payload(8, g)
    engine.update(payload)
    victim, stale_key = 321, int(payload[321])
    poke_word(engine.cam, victim, 0x3C, 1)  # write without erasing
    table = payload.copy()
    table[victim] = 0x3C
    ref = ReferenceCam(1024, 8)
    ref.load_full(table)
    keys = np.array([k for k in range(256) if k != stale_key] + [stale_key],
                    dtype=np.uint64)
    whole = equivalence_check(engine.cam, ref, keys)

    monkeypatch.setattr(oracle, "_COMPARE_BYTES", 4 * g.depth_n)
    chunks = _spy_searches(monkeypatch, engine)
    chunked = equivalence_check(engine.cam, ref, keys)
    assert chunked == whole
    assert chunked.first_divergence == (stale_key, victim)
    assert chunked.keys_checked == 256
    assert len(chunks) > 1


def _dense_verdict(engine, ref, keys):
    """The verdict of comparing dense match vectors cell by cell."""
    diff = np.argwhere(engine.cam.search_batch(keys) != ref.search_batch(keys))
    if not diff.size:
        return True, None
    return False, (int(keys[diff[0][0]]), int(diff[0][1]))


def test_reference_update_after_a_compare_is_seen():
    # the first compare sorts the reference; a reload must not leave the
    # sorted index stale
    g = geometry_for("s2", 1024, 8)
    engine = RcamEngine(g)
    payload = generate_payload(6, g)
    engine.update(payload)
    ref = ReferenceCam(1024, 8)
    ref.load_full(payload)
    keys = np.arange(256, dtype=np.uint64)
    assert equivalence_check(engine.cam, ref, keys).passed
    old, new = int(payload[500]), (int(payload[500]) + 1) % 256
    table = payload.copy()
    table[500] = new
    ref.load_full(table)
    verdict = equivalence_check(engine.cam, ref, keys)
    assert (verdict.passed, verdict.first_divergence) == (
        False, (min(old, new), 500)) == _dense_verdict(engine, ref, keys)


@given(arch=st.sampled_from(ARCHITECTURES),
       depth=st.sampled_from([1024, 2048, 4096]),
       width=st.sampled_from([8, 16, 32, 64]),
       data=st.data())
@settings(max_examples=80, deadline=None)
def test_compare_gives_the_dense_verdict(arch, depth, width, data):
    g = geometry_for(arch, depth, width)
    engine = RcamEngine(g)
    payload = generate_payload(data.draw(st.integers(1, 1000), "seed"), g)
    engine.update(payload)
    ref = ReferenceCam(depth, width)
    ref.load_full(payload)
    index = st.integers(0, depth - 1)
    value = st.integers(0, g.word_mask) | index.map(lambda i: int(payload[i]))
    # with many duplicate keys, at least one fault is planted
    duplicates = data.draw(st.booleans(), "many duplicates")
    faults = data.draw(st.lists(st.tuples(
        st.sampled_from(["set", "clear", "reference"]), index, value),
        min_size=int(duplicates), max_size=4), "faults")
    # keys: about half from the table, some at the faulted words' old and
    # new values
    touched = [int(payload[i]) for _, i, _ in faults] + [v for *_, v in faults]
    key = value if not touched else value | st.sampled_from(touched)
    max_keys = 40
    if duplicates:
        # a few values, each repeated, the faulted ones among them
        key = st.sampled_from(touched + data.draw(
            st.lists(key, min_size=1, max_size=3), "repeated values"))
        max_keys = 200
    keys = np.array(data.draw(st.lists(key, max_size=max_keys), "keys"),
                    dtype=np.uint64)
    # a compare before the faults builds the reference's sorted index
    verdict = equivalence_check(engine.cam, ref, keys)
    assert (verdict.passed, verdict.first_divergence) == _dense_verdict(
        engine, ref, keys)
    table = payload.copy()
    for kind, i, v in faults:
        if kind == "reference":
            table[i] = v
        else:  # an engine write or erase without the matching erase
            poke_word(engine.cam, i, v, int(kind == "set"))
    ref.load_full(table)
    # small budgets put chunk boundaries inside the key sample
    step = data.draw(st.sampled_from([None, 1, 3]), "keys per chunk")
    budget = data.draw(st.sampled_from([None, 1, 40]), "hit budget")
    with mock.patch.multiple(
            oracle,
            _COMPARE_BYTES=(oracle._COMPARE_BYTES if step is None
                            else 4 * step * depth // 32),
            _HIT_BUDGET=oracle._HIT_BUDGET if budget is None else budget):
        verdict = equivalence_check(engine.cam, ref, keys)
    assert (verdict.passed, verdict.first_divergence) == _dense_verdict(
        engine, ref, keys)
    assert verdict.keys_checked == keys.size


def _spy_hits(monkeypatch, ref):
    """Record (runs, hits) of every ``ref.hits`` call."""
    calls = []
    hits = ref.hits

    def counted_hits(first, counts):
        words = hits(first, counts)
        calls.append((first.size, words.size))
        return words

    monkeypatch.setattr(ref, "hits", counted_hits)
    return calls


def test_a_table_of_one_word_keeps_chunks_within_the_hit_budget(monkeypatch):
    g = geometry_for("s2", 65536, 8)
    engine = RcamEngine(g)
    payload = np.full(g.depth_n, 0x5A, dtype=np.uint64)
    engine.update(payload)
    ref = ReferenceCam(g.depth_n, 8)
    ref.load_full(payload)
    keys = np.full(1000, 0x5A, dtype=np.uint64)
    calls = _spy_hits(monkeypatch, ref)
    assert equivalence_check(engine.cam, ref, keys).passed
    # 1,000 copies of one key cost that key's N hits, not keys x N
    assert calls == [(1, g.depth_n)]
    # a budget below one key's hits still takes every copy of it at once
    monkeypatch.setattr(oracle, "_HIT_BUDGET", 10)
    calls.clear()
    assert equivalence_check(engine.cam, ref, keys[:4]).passed
    assert calls == [(1, g.depth_n)]


def test_hit_budget_counts_each_distinct_key_once(monkeypatch):
    # two words of N/2 copies each; the budget holds one of them
    g = geometry_for("s2", 4096, 8)
    engine = RcamEngine(g)
    payload = np.where(np.arange(g.depth_n) % 2, 0xA5, 0x5A).astype(np.uint64)
    engine.update(payload)
    ref = ReferenceCam(g.depth_n, 8)
    ref.load_full(payload)
    half = g.depth_n // 2
    monkeypatch.setattr(oracle, "_HIT_BUDGET", half)
    calls = _spy_hits(monkeypatch, ref)
    searches = _spy_searches(monkeypatch, engine)
    keys = np.array([0x5A, 0x5A, 0xA5, 0xA5, 0x5A, 0x11], dtype=np.uint64)
    assert equivalence_check(engine.cam, ref, keys).passed
    # one search of the key chunk, and its hits in slices, in value order:
    # 0x11 (no hits) and 0x5A, then 0xA5
    assert searches == [[0x11, 0x5A, 0xA5]]
    assert calls == [(2, half), (1, half)]


@pytest.mark.parametrize("arch", ARCHITECTURES)
def test_each_distinct_key_is_searched_once(monkeypatch, arch):
    # the flagship sample: 1,000 keys at 65,536x8 hold 250 distinct values
    g = geometry_for(arch, 65536, 8)
    engine = RcamEngine(g)
    payload = generate_payload(1, g)
    engine.update(payload)
    ref = ReferenceCam(g.depth_n, 8)
    ref.load_full(payload)
    keys = search_keys(1, payload, g, 1000)
    calls = _spy_searches(monkeypatch, engine)
    verdict = equivalence_check(engine.cam, ref, keys)
    assert verdict.passed and verdict.keys_checked == 1000
    searched = [key for call in calls for key in call]
    assert len(searched) == 250
    assert searched == sorted(set(keys.tolist()))


def test_the_earliest_diverging_key_wins_across_chunks(monkeypatch):
    # Two faults: the key first seen in the sample is the larger value, so
    # a compare that walks values in order meets the other one first.
    g = geometry_for("s2", 1024, 8)
    engine = RcamEngine(g)
    payload = generate_payload(8, g)
    engine.update(payload)
    ref = ReferenceCam(1024, 8)
    ref.load_full(payload)
    late, early = 0x0F, 0xF0
    assert int(payload[100]) != late and int(payload[700]) != early
    poke_word(engine.cam, 100, late, 1)  # writes without erasing
    poke_word(engine.cam, 700, early, 1)
    keys = np.array([early, 3, 0x80, late, early, 200], dtype=np.uint64)
    # one distinct key per chunk
    monkeypatch.setattr(oracle, "_COMPARE_BYTES", 4 * g.depth_n // 32)
    calls = _spy_searches(monkeypatch, engine)
    verdict = equivalence_check(engine.cam, ref, keys)
    # before the dense search below adds a call of its own
    chunk_of = {key: n for n, call in enumerate(calls) for key in call}
    assert chunk_of[late] < chunk_of[early]
    assert (verdict.passed, verdict.first_divergence) == _dense_verdict(
        engine, ref, keys)
    assert verdict.first_divergence == (early, 700)


def test_the_smallest_diverging_word_wins_within_a_key():
    # One key with both a missed hit (word 900) and an extra match (word
    # 10): the verdict names the smaller word, not the missed hit.
    g = geometry_for("s2", 1024, 8)
    engine = RcamEngine(g)
    payload = np.zeros(g.depth_n, dtype=np.uint64)
    payload[900] = 5
    engine.update(payload)
    ref = ReferenceCam(1024, 8)
    ref.load_full(payload)
    poke_word(engine.cam, 900, 5, 0)
    poke_word(engine.cam, 10, 5, 1)
    verdict = equivalence_check(engine.cam, ref, np.array([5], np.uint64))
    assert verdict.first_divergence == (5, 10)
    assert (verdict.passed, verdict.first_divergence) == _dense_verdict(
        engine, ref, np.array([5], np.uint64))


def test_compare_memory_is_flat_in_the_key_count():
    # At 2^20 words the hit budget, not only the mask bytes, cuts the
    # chunks.  Each 8-bit key hits about 4,096 words; the peak holds one
    # chunk's masks and hits (some 40 bytes a hit), whatever the sample.
    g = geometry_for("s2", 1 << 20, 8)
    engine = RcamEngine(g)
    payload = generate_payload(1, g)
    engine.update(payload)
    ref = ReferenceCam(g.depth_n, 8)
    ref.load_full(payload)
    ref.spans(payload[:1])  # the sorted index lives as long as the table
    rng = np.random.default_rng(0)
    peaks = []
    for count in (1_000, 20_000, 100_000):
        keys = rng.integers(0, 256, count, dtype=np.uint64)
        tracemalloc.start()
        try:
            assert equivalence_check(engine.cam, ref, keys).passed
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert max(peaks) < oracle._COMPARE_BYTES + 48 * oracle._HIT_BUDGET
    # less than 4 bytes an added key: one int64 per key would be 8
    assert max(peaks) - peaks[0] < 4 * (100_000 - 1_000)
