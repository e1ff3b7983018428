"""Structural parameters of a RAM-based binary CAM and its index arithmetic.

A CAM of ``depth_n`` words by ``word_width_w`` bits is built from RCUs (RAM
CAM units): dual-port block RAMs whose write port sees 8,192x1 bits and whose
search port sees 256x32 bits.  Each RCU therefore stores 32 CAM sub-words of
8 bits as a 256-row x 32-column bit matrix.  Words wider than 8 bits occupy
one RCU per byte slice; all slices of a word share the same slot.

Global word order is preserved across all write parallelisms by a single
placement map

    word = rcb * (32 * k) + j * k + i

where ``rcb`` indexes a sub-CAM block of ``k`` RCUs written in the same
internal cycle, ``j`` is the slot (0..31) and ``i`` the RCU position within
the block.  ``k`` is the number of words written per internal cycle, which
the architecture fixes (:attr:`CamGeometry.words_per_beat_k` derives it):

    s1  k = 1            one word per erase/write pair (sequential fill)
    s2  k = B / W        one bus beat per cycle
    s3  k = P * B / W    one wide erase-RAM row per cycle (P partitions)

With k = 1 the map degenerates to the traditional depth-sequential placement
(word v lives in RCU v // 32, slot v % 32), so the same bijection serves all
three architectures.
"""

from __future__ import annotations

from dataclasses import dataclass

RCU_ROWS = 256  # 2^8 rows, one per sub-word value
RCU_SLOTS = 32  # CAM words per RCU
SUB_WORD_BITS = 8
M10K_BITS = RCU_ROWS * RCU_SLOTS  # 8,192 bits per embedded memory block

ARCHITECTURES = ("s1", "s2", "s3")

# Deepest table simulated, refused before any allocation.
MAX_DEPTH = 1 << 20


class GeometryError(ValueError):
    """Raised for structurally invalid CAM configurations."""


@dataclass(frozen=True)
class CamGeometry:
    """All structural parameters of one CAM instance.

    ``partitions_p`` is the number of horizontally arranged erase-RAM
    sub-memories (1 unless the architecture is s3).  The internal write
    parallelism ``words_per_beat_k`` described above is not a parameter: the
    architecture, bus width, word width and partition count fix it.
    """

    architecture: str
    depth_n: int
    word_width_w: int
    bus_width_b: int = 256
    partitions_p: int = 1

    def __post_init__(self) -> None:
        if self.architecture not in ARCHITECTURES:
            raise GeometryError(f"unknown architecture {self.architecture!r}")
        if not 0 < self.depth_n <= MAX_DEPTH:
            raise GeometryError(f"depth_n must be in [1, {MAX_DEPTH}]")
        if self.word_width_w <= 0 or self.word_width_w % SUB_WORD_BITS != 0:
            raise GeometryError("word_width_w must be a positive multiple of 8")
        if self.word_width_w > 64:
            raise GeometryError("word widths above 64 bits are not supported")
        if self.bus_width_b <= 0:
            raise GeometryError("bus width must be positive")
        if self.bus_width_b % self.word_width_w != 0:
            raise GeometryError(
                f"bus width {self.bus_width_b} not divisible by word width "
                f"{self.word_width_w}"
            )
        check_partitions(self.partitions_p)
        if self.architecture != "s3" and self.partitions_p != 1:
            raise GeometryError("partitions_p > 1 is only meaningful for s3")
        group = RCU_SLOTS * self.words_per_beat_k
        if self.depth_n % group != 0:
            raise GeometryError(
                f"depth_n={self.depth_n} not divisible by slots*k={group}"
            )
        if (self.depth_n * self.word_width_w) % self.bus_width_b != 0:
            raise GeometryError("table size must be a whole number of bus beats")

    # -- derived quantities -------------------------------------------------

    @property
    def words_per_beat_k(self) -> int:
        """Words written per internal cycle: 1 for s1, P*B/W otherwise."""
        if self.architecture == "s1":
            return 1
        return self.partitions_p * self.bus_width_b // self.word_width_w

    @property
    def slices(self) -> int:
        """Byte slices per word (RCUs stacked in the width direction)."""
        return self.word_width_w // SUB_WORD_BITS

    @property
    def rcb_count(self) -> int:
        return self.depth_n // (RCU_SLOTS * self.words_per_beat_k)

    @property
    def rcu_count(self) -> int:
        """Total RCUs = (N/32) * (W/8), independent of the write parallelism."""
        return self.rcb_count * self.words_per_beat_k * self.slices

    @property
    def words_per_bus_beat(self) -> int:
        return self.bus_width_b // self.word_width_w

    @property
    def beat_count(self) -> int:
        """External bus beats needed to transfer the whole table."""
        return self.depth_n * self.word_width_w // self.bus_width_b

    @property
    def erase_row_count(self) -> int:
        """Rows of the erase store: beats for s2, wide rows (beats/P) for s3."""
        return self.beat_count // self.partitions_p

    @property
    def table_bits(self) -> int:
        return self.depth_n * self.word_width_w

    @property
    def word_mask(self) -> int:
        return (1 << self.word_width_w) - 1

    def describe(self) -> dict:
        return {
            "architecture": self.architecture,
            "depth_n": self.depth_n,
            "word_width_w": self.word_width_w,
            "bus_width_b": self.bus_width_b,
            "words_per_beat_k": self.words_per_beat_k,
            "partitions_p": self.partitions_p,
            "rcb_count": self.rcb_count,
            "rcu_count": self.rcu_count,
        }


def check_partitions(partitions_p: int) -> None:
    """Reject a partition count that is not a power of two."""
    if partitions_p < 1 or partitions_p & (partitions_p - 1):
        raise GeometryError("partitions_p must be a power of two")


def feasible_partitions(depth_n: int, word_width_w: int, bus_width_b: int = 256,
                        requested: int = 8) -> int:
    """Largest power-of-two partition count <= requested that still leaves at
    least one whole sub-CAM block (32*k words must not exceed the table).

    A request that is not a power of two is rejected before the clamp, so
    the rejection does not depend on the table size.
    """
    check_partitions(requested)
    p = requested
    while p > 1 and RCU_SLOTS * p * bus_width_b > depth_n * word_width_w:
        p //= 2
    return p


def geometry_for(architecture: str, depth_n: int, word_width_w: int,
                 bus_width_b: int = 256, partitions_p: int = 8) -> CamGeometry:
    """Build a validated geometry for one architecture.

    For s3 the partition count is clamped down (powers of two) when the table
    is too small for the requested width expansion; s1 and s2 ignore
    ``partitions_p``.
    """
    if architecture == "s3":
        partitions_p = feasible_partitions(depth_n, word_width_w, bus_width_b,
                                           partitions_p)
    else:
        partitions_p = 1
    return CamGeometry(architecture, depth_n, word_width_w, bus_width_b,
                       partitions_p)


def map_word_index(geometry: CamGeometry, word: int) -> tuple[int, int, int]:
    """Global word index -> (rcb, slot j, position i)."""
    if not 0 <= word < geometry.depth_n:
        raise GeometryError(
            f"word index {word} out of range [0, {geometry.depth_n})")
    group = RCU_SLOTS * geometry.words_per_beat_k
    rcb, rem = divmod(word, group)
    j, i = divmod(rem, geometry.words_per_beat_k)
    return rcb, j, i
