import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from rcam_sim.geometry import (MAX_DEPTH, CamGeometry, GeometryError,
                               byte_slices, feasible_partitions, geometry_for)

from cam_helpers import map_word_index, word_index_of

FLAGSHIP = dict(depth_n=65536, word_width_w=8)


def test_flagship_s2_shape():
    g = geometry_for("s2", **FLAGSHIP)
    assert g.words_per_beat_k == 32
    assert g.rcb_count == 64
    assert g.rcu_count == 2048
    assert g.beat_count == 2048
    assert g.slices == 1


def test_flagship_s3_shape():
    g = geometry_for("s3", **FLAGSHIP)
    assert g.words_per_beat_k == 256
    assert g.rcb_count == 8
    assert g.partitions_p == 8
    assert g.erase_row_count == 256


def test_s1_uses_unit_parallelism():
    g = geometry_for("s1", **FLAGSHIP)
    assert g.words_per_beat_k == 1
    assert g.rcb_count == 65536 // 32
    assert g.rcu_count == 2048


@pytest.mark.parametrize("word,triple", [
    (0, (0, 0, 0)),
    (31, (0, 0, 31)),
    (32, (0, 1, 0)),
    (1023, (0, 31, 31)),
    (1024, (1, 0, 0)),
])
def test_bit_sliced_order_s2(word, triple):
    g = geometry_for("s2", **FLAGSHIP)
    assert map_word_index(g, word) == triple


@pytest.mark.parametrize("word,triple", [(255, (0, 0, 255)), (256, (0, 1, 0))])
def test_bit_sliced_order_s3(word, triple):
    g = geometry_for("s3", **FLAGSHIP)
    assert map_word_index(g, word) == triple


@pytest.mark.parametrize("arch", ["s1", "s2", "s3"])
def test_bijection_exhaustive(arch):
    g = geometry_for(arch, **FLAGSHIP)
    k = g.words_per_beat_k
    words = np.arange(g.depth_n)
    rcb, rem = np.divmod(words, 32 * k)
    j, i = np.divmod(rem, k)
    back = rcb * 32 * k + j * k + i
    assert np.array_equal(back, words)
    assert rcb.max() == g.rcb_count - 1 and j.max() == 31 and i.max() == k - 1
    # spot-check the scalar API against the vectorized arithmetic
    for w in (0, 1, 31, 32, g.depth_n // 2, g.depth_n - 1):
        t = map_word_index(g, w)
        assert t == (int(rcb[w]), int(j[w]), int(i[w]))
        assert word_index_of(g, *t) == w


def test_map_range_errors():
    g = geometry_for("s2", 1024, 8)
    with pytest.raises(GeometryError):
        map_word_index(g, 1024)
    with pytest.raises(GeometryError):
        map_word_index(g, -1)


@pytest.mark.parametrize("kwargs", [
    dict(architecture="s2", depth_n=1000, word_width_w=8),
    dict(architecture="s2", depth_n=1024, word_width_w=24),
    dict(architecture="s2", depth_n=1024, word_width_w=8, bus_width_b=0),
    dict(architecture="s1", depth_n=1024, word_width_w=8, partitions_p=4),
    dict(architecture="s3", depth_n=1024, word_width_w=8, partitions_p=3),
])
def test_invalid_geometries(kwargs):
    with pytest.raises(GeometryError):
        CamGeometry(**kwargs)


@pytest.mark.parametrize("arch", ["s1", "s2", "s3"])
def test_depth_has_a_stated_maximum(arch):
    assert geometry_for(arch, MAX_DEPTH, 8).depth_n == MAX_DEPTH
    for depth in (MAX_DEPTH + 1, 1 << 40):
        with pytest.raises(GeometryError,
                           match=r"depth_n must be in \[1, 1048576\]"):
            geometry_for(arch, depth, 8)
    with pytest.raises(GeometryError, match="depth_n must be in"):
        CamGeometry(arch, 0, 8)


def test_k_follows_architecture_bus_and_partitions():
    assert CamGeometry("s1", 1024, 64, 512).words_per_beat_k == 1
    assert CamGeometry("s2", 1024, 16, 512).words_per_beat_k == 32
    assert CamGeometry("s3", 1024, 64, partitions_p=2).words_per_beat_k == 8
    # The partition check runs before k is read: at P = 2, an s2 k of 64
    # would otherwise fail the depth divisibility first.
    with pytest.raises(GeometryError, match="only meaningful for s3"):
        CamGeometry("s2", 1024, 8, partitions_p=2)


def test_partition_clamping():
    assert feasible_partitions(65536, 8) == 8
    assert feasible_partitions(1024, 8) == 1
    assert feasible_partitions(1024, 64) == 8
    assert feasible_partitions(4096, 8) == 4
    g = geometry_for("s3", 4096, 8, partitions_p=8)
    assert g.partitions_p == 4
    assert g.rcb_count >= 1


@given(st.sampled_from(["s1", "s2", "s3"]),
       st.sampled_from([1024, 2048, 4096, 8192, 65536]),
       st.sampled_from([8, 16, 32, 64]),
       st.integers(0, 10))
@settings(max_examples=60, deadline=None)
def test_bijection_property(arch, depth, width, salt):
    g = geometry_for(arch, depth, width)
    word = (salt * 7919) % depth
    assert word_index_of(g, *map_word_index(g, word)) == word


@given(hnp.arrays(st.sampled_from(["u1", "<u2", ">u2", "<u4", ">u4", "<u8",
                                   ">u8"]).map(np.dtype),
                  hnp.array_shapes(min_dims=1, max_dims=2, min_side=0)),
       st.integers(1, 3))
@settings(max_examples=200)
def test_byte_slices_are_the_shifted_bytes(words, stride):
    # every unsigned width and byte order; strided, empty and 2-D inputs
    # (2-D uint32 arrays are the RCU slot masks)
    words = words[::stride]
    octets = byte_slices(words)
    assert octets.shape == (*words.shape, words.itemsize)
    wide = words.astype(np.uint64)
    for c in range(words.itemsize):
        assert np.array_equal(octets[..., c],
                              (wide >> np.uint64(8 * c)) & np.uint64(0xFF))


def test_byte_slices_view_contiguous_little_endian_words():
    words = np.arange(8, dtype="<u8")
    byte_slices(words)[:, 1] = 1  # a view: writes reach the words
    assert np.array_equal(words, np.arange(8) + 256)
