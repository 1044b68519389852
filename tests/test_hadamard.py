"""Sylvester reduction, weight labels, and pyramid planes."""

import random
import tracemalloc
from math import comb

import pytest

from krawtchouk import cli, core, hadamard, sympow
from krawtchouk.lanes import LEAF_BITS, Lanes, lane_bits
from krawtchouk.matrix import Matrix
from krawtchouk.rings import ZZ


def test_weight_labels_doubling():
    assert hadamard.weight_labels(3) == [0, 1, 1, 2, 1, 2, 2, 3]
    assert hadamard.weight_labels(0) == [0]
    w5 = hadamard.weight_labels(5)
    assert [w5.count(p) for p in range(6)] == [comb(5, p) for p in range(6)]
    for n in range(8):
        labels = hadamard.weight_labels(n)
        assert all(labels[k] == k.bit_count() for k in range(2 ** n))
    with pytest.raises(ValueError):
        hadamard.weight_labels(hadamard.REDUCE_BOUND + 1)
    with pytest.raises(ValueError):
        hadamard.weight_labels(31)


def test_walsh_hadamard_unit_columns():
    # the image of e_b is column b; entry (a, b) is the parity of the
    # overlap of the binary indices
    for b in range(8):
        unit = [int(k == b) for k in range(8)]
        assert hadamard.walsh_hadamard(unit) == \
            [(-1) ** (a & b).bit_count() for a in range(8)]


@pytest.mark.parametrize("n", range(7))
def test_walsh_hadamard_matches_kron_power(n):
    rng = random.Random(n)
    h_kron = sympow.kron_power(sympow.MAT_H, n)
    for _ in range(3):
        vec = [rng.randint(-50, 50) for _ in range(2 ** n)]
        assert hadamard.walsh_hadamard(vec) == h_kron.mul_vector(vec)


@pytest.mark.parametrize("n", range(10, 14))
def test_walsh_hadamard_across_blocks(n):
    # beyond 2^BLOCK_BITS entries the top bits pair whole blocks; check
    # rows 0, 2^n - 1 and eight random rows against the defining sum
    rng = random.Random(1000 + n)
    size = 2 ** n
    vec = [rng.randint(-2 ** 80, 2 ** 80) for _ in range(size)]
    before = list(vec)
    image = hadamard.walsh_hadamard(vec)
    assert vec == before
    for a in [0, size - 1] + rng.sample(range(size), 8):
        assert image[a] == sum(-x if (a & b).bit_count() % 2 else x
                               for b, x in enumerate(vec)), a


def test_walsh_hadamard_rejects_bad_length():
    for size in (0, 3, 6):
        with pytest.raises(ValueError, match="power of two"):
            hadamard.walsh_hadamard([1] * size)


def test_reduce_small_cases():
    assert hadamard.reduce_to_symmetric(0) == Matrix(ZZ, [[1]])
    assert hadamard.reduce_to_symmetric(2) == \
        Matrix(ZZ, [[1, 2, 1], [2, 0, -2], [1, -2, 1]])
    s4 = hadamard.reduce_to_symmetric(4)
    assert s4[2, 2] == -12
    with pytest.raises(ValueError):
        hadamard.reduce_to_symmetric(hadamard.REDUCE_BOUND + 1)


@pytest.mark.parametrize("n", range(hadamard.REDUCE_BOUND + 1))
def test_reduce_equals_symmetric(n):
    assert hadamard.reduce_to_symmetric(n) == core.k_symmetric(n)


def test_reduce_asserts_its_lanes_hold(monkeypatch):
    # 2-bit lanes at n = 6 overflow; the decode must refuse, not return
    monkeypatch.setattr(hadamard, "lane_bits", lambda bound: 2)
    with pytest.raises(AssertionError, match="overflowed"):
        hadamard.reduce_to_symmetric(6)


BOUNDS = [0, 1, 2, 3, 7, 8, 255, 256, 2 ** 64 - 1, 2 ** 64, 10 ** 30]


def counts_across_the_leaf(bits):
    """Lane counts on both sides of one leaf and of powers of two.

    Above one leaf of LEAF_BITS bits the codec packs and reads in halves.
    """
    leaf = max(1, LEAF_BITS // bits)
    return sorted({1, 2, 5, 17, 31, 32, 33, 64, 65, 97, 129, 193,
                   leaf, leaf + 1, 2 * leaf, 2 * leaf + 1, 3 * leaf + 2})


@pytest.mark.parametrize("bound", BOUNDS)
def test_lanes_round_trip_every_value_within_the_bound(bound):
    rng = random.Random(bound)
    for count in counts_across_the_leaf(lane_bits(bound)):
        lanes = Lanes(lane_bits(bound), count)
        for values in ([bound] * count, [-bound] * count,
                       [rng.randint(-bound, bound) for _ in range(count)],
                       [(-1) ** q * bound for q in range(count)]):
            packed = lanes.pack(values)
            assert packed == sum(x << (lanes.bits * q)
                                 for q, x in enumerate(values))
            assert lanes.unpack(packed) == values
        # fewer values than lanes leave the top lanes zero
        assert lanes.unpack(lanes.pack([bound])) == [bound] + [0] * (count - 1)


def unpack_lane_by_lane(total, bits, count):
    """Balanced base-2^bits digits of ``total``, one shift and mask per
    lane, with the remainder above the last lane checked last."""
    offset = 1 << (bits - 1)
    lifted = total + sum(offset << (bits * q) for q in range(count))
    digits = [((lifted >> (bits * q)) & ((1 << bits) - 1)) - offset
              for q in range(count)]
    if lifted >> (bits * count):
        raise AssertionError("a packed value overflowed its lanes")
    return digits


@pytest.mark.parametrize("bits", [1, 2, 7, 64, 101, 385, LEAF_BITS + 1])
def test_unpack_reads_the_digits_of_the_lane_by_lane_loop(bits):
    rng = random.Random(bits)
    for count in counts_across_the_leaf(bits):
        lanes = Lanes(bits, count)
        width = bits * count
        # a value past the bound in a middle lane carries into the next
        # lane instead of raising; it must carry the same way in both
        carried = [0] * count
        carried[count // 2] = 1 << (bits - 1)
        totals = [lanes.pack(carried), -lanes.pack(carried), -1, 0]
        totals += [rng.randrange(-(1 << width), 1 << width)
                   for _ in range(6)]
        # a read of the first lanes, within one leaf or across several,
        # is the prefix of the full read and keeps its guard
        firsts = sorted({1, count // 2 + 1, count - 1, count} - {0})
        for total in totals:
            try:
                expected = unpack_lane_by_lane(total, bits, count)
            except AssertionError:
                for first in [None] + firsts:
                    with pytest.raises(AssertionError, match="overflowed"):
                        lanes.unpack(total, first)
            else:
                assert lanes.unpack(total) == expected
                for first in firsts:
                    assert lanes.unpack(total, first) == expected[:first]


def test_lanes_carry_sums_and_products_of_their_values():
    lanes = Lanes(lane_bits(3 * 5 * 4), 4)
    rows = [[5, -3, 0, 1], [-2, 4, 1, 0], [0, 1, -5, 2]]
    coeffs = [3, -4, 2]
    total = sum(c * lanes.pack(row) for c, row in zip(coeffs, rows))
    assert lanes.unpack(total) == [sum(c * row[q] for c, row in zip(coeffs, rows))
                                   for q in range(4)]
    # (1 - 2y)(3 + y + y^2) = 3 - 5y - y^2 - 2y^3
    assert lanes.unpack(lanes.pack([1, -2]) * lanes.pack([3, 1, 1])) == \
        [3, -5, -1, -2]


@pytest.mark.parametrize("bound", [b for b in BOUNDS if b])
def test_a_lane_one_bit_too_narrow_is_refused(bound):
    narrow = lane_bits(bound) - 1
    leaf = max(1, LEAF_BITS // narrow)
    for count in (1, 3, leaf + 1, 2 * leaf + 1):
        lanes = Lanes(narrow, count)
        with pytest.raises(AssertionError, match="overflowed"):
            lanes.unpack(lanes.pack([0] * (count - 1) + [bound]))


def test_lanes_refuse_more_values_than_lanes():
    with pytest.raises(ValueError, match="3 values for 2 lanes"):
        Lanes(4, 2).pack([1, 2, 3])


def test_reduce_keeps_one_generation_alive():
    # the packed lanes on a transform that kept two generations of all
    # 2^14 entries peaked at 2.91 MiB; in place the peak is about 1.71 MiB
    tracemalloc.start()
    try:
        hadamard.reduce_to_symmetric(14)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / 2 ** 20 < 1.8


@pytest.mark.parametrize("n", range(15))
def test_pyramid_recurrence_construction(n):
    built = hadamard.k_pyramid(n)
    assert built.method == "PyramidRecurrence"
    assert built.mat == core.k_genfunc(n).mat


@pytest.mark.parametrize("n", range(257))
def test_pyramid_quarter_unfolds_to_every_cell(n):
    # even and odd orders keep n//2 + 1 columns with and without a middle
    # one and decode their top n//2 + 1 rows, level m keeps only the
    # columns that reach them, and the lane width lane_bits(2^n) grows
    # with n
    assert hadamard.k_pyramid(n).mat == core.k_reference(n)


def test_pyramid_asserts_its_lanes_hold(monkeypatch):
    # 2-bit lanes at n = 6 overflow; the decode must refuse, not return
    monkeypatch.setattr(hadamard, "lane_bits", lambda bound: 2)
    with pytest.raises(AssertionError, match="overflowed"):
        hadamard.k_pyramid(6)


@pytest.mark.parametrize("n", range(1, 13))
def test_pyramid_cross_identities(n):
    assert hadamard.pyramid_cross_check(n)


def test_pyramid_cross_check_checks_one_order(monkeypatch):
    # a wrong K(4,1,1) breaks the identities at orders 3, 4 and 5 only
    real = core.k_reference

    def corrupted(n):
        mat = real(n)
        if n != 4:
            return mat
        rows = [list(row) for row in mat.data]
        rows[1][1] += 2
        return Matrix(ZZ, rows)

    monkeypatch.setattr(hadamard, "k_reference", corrupted)
    assert [n for n in range(1, 8) if not hadamard.pyramid_cross_check(n)] \
        == [3, 4, 5]
    assert hadamard.pyramid_cross_check(4).n == 4
    with pytest.raises(ValueError, match="order >= 1"):
        hadamard.pyramid_cross_check(0)


def test_square_identity_reading():
    # lower-left = sum of the other three, read off the order-3 table
    k3 = core.k_genfunc(3).mat
    assert k3[1, 0] == k3[0, 0] + k3[0, 1] + k3[1, 1]  # 3 = 1 + 1 + 1
    k4 = core.k_genfunc(4).mat
    for i in range(4):
        for j in range(4):
            assert k4[i + 1, j] == k4[i, j] + k4[i, j + 1] + k4[i + 1, j + 1]


def test_west_wall_is_pascal():
    plane = hadamard.pyramid_plane("west-down", 0, 6)
    assert [list(r) for r in plane] == [
        [1],
        [1, 1],
        [1, 2, 1],
        [1, 3, 3, 1],
        [1, 4, 6, 4, 1],
        [1, 5, 10, 10, 5, 1],
    ]


def test_west_plane_depth_one():
    # rows are column 1 of successive orders; the published panel for this
    # plane breaks its own addition rule from the fifth row on, so the
    # rule-consistent values are pinned instead
    plane = hadamard.pyramid_plane("west-down", 1, 6)
    assert [list(r) for r in plane] == [
        [1, -1],
        [1, 0, -1],
        [1, 1, -1, -1],
        [1, 2, 0, -2, -1],
        [1, 3, 2, -2, -3, -1],
        [1, 4, 5, 0, -5, -4, -1],
    ]
    for r, row in enumerate(plane):
        n = 1 + r
        assert list(row) == [core.k_entry(n, p, 1) for p in range(n + 1)]


def test_east_wall_and_depth_two_panel():
    wall = hadamard.pyramid_plane("east-down", 0, 5)
    assert [list(r) for r in wall] == [
        [1],
        [1, -1],
        [1, -2, 1],
        [1, -3, 3, -1],
        [1, -4, 6, -4, 1],
    ]
    plane = hadamard.pyramid_plane("east-down", 2, 5)
    assert [list(r) for r in plane] == [
        [1, 2, 1],
        [1, 1, -1, -1],
        [1, 0, -2, 0, 1],
        [1, -1, -2, 2, 1, -1],
        [1, -2, -1, 4, -1, -2, 1],
    ]


def test_north_wall_and_depth_one_panel():
    wall = hadamard.pyramid_plane("north-up", 0, 3)
    assert [list(r) for r in wall] == [[1], [1, 1], [1, 1, 1]]
    plane = hadamard.pyramid_plane("north-up", 1, 6)
    assert [list(r) for r in plane] == [
        [1, -1],
        [2, 0, -2],
        [3, 1, -1, -3],
        [4, 2, 0, -2, -4],
        [5, 3, 1, -1, -3, -5],
        [6, 4, 2, 0, -2, -4, -6],
    ]


def test_south_wall_and_depth_two_panel():
    wall = hadamard.pyramid_plane("south-up", 0, 6)
    for r, row in enumerate(wall):
        assert list(row) == [(-1) ** q for q in range(r + 1)]
    plane = hadamard.pyramid_plane("south-up", 2, 6)
    assert [list(r) for r in plane] == [
        [1, 1, 1],
        [3, 1, -1, -3],
        [6, 0, -2, 0, 6],
        [10, -2, -2, 2, 2, -10],
        [15, -5, -1, 3, -1, -5, 15],
        [21, -9, 1, 3, -3, -1, 9, -21],
    ]


def test_up_planes_halving_is_integral():
    # every entry is the exact half-sum / half-difference of the two below
    for depth in range(4):
        north = hadamard.pyramid_plane("north-up", depth, 6)
        south = hadamard.pyramid_plane("south-up", depth, 6)
        for upper, lower in zip(north, north[1:]):
            assert list(upper) == [(lower[i] + lower[i + 1]) // 2
                                   for i in range(len(lower) - 1)]
            assert all((lower[i] + lower[i + 1]) % 2 == 0
                       for i in range(len(lower) - 1))
        for upper, lower in zip(south, south[1:]):
            assert list(upper) == [(lower[i] - lower[i + 1]) // 2
                                   for i in range(len(lower) - 1)]


def test_east_plane_first_row_orientation():
    # the first row of the depth-k east plane carries the magnitudes of the
    # last column of the order-k matrix (signs stripped by orientation)
    for k in range(6):
        plane = hadamard.pyramid_plane("east-down", k, 1)
        last_col = [core.k_entry(k, p, k) for p in range(k + 1)]
        assert list(plane[0]) == [abs(x) for x in last_col]
        assert list(plane[0]) == [comb(k, p) for p in range(k + 1)]


def test_plane_errors_and_csv(capsys):
    with pytest.raises(ValueError, match="unknown direction"):
        hadamard.pyramid_plane("sideways", 0, 3)
    with pytest.raises(ValueError):
        hadamard.pyramid_plane("west-down", 0, 0)
    plane = hadamard.pyramid_plane("west-down", 0, 3)
    assert plane == ((1,), (1, 1), (1, 2, 1))
    assert cli.main(["pyramid", "--direction", "west-down", "--rows", "3",
                     "--format", "csv"]) == 0
    assert capsys.readouterr().out == "1\n1,1\n1,2,1\n"


@pytest.mark.parametrize("direction", ["north-up", "south-up"])
def test_up_planes_refuse_a_row_of_mixed_parity(monkeypatch, direction):
    # a bottom row 0, 1, 2, ... has odd neighbour sums and differences
    monkeypatch.setattr(hadamard, "k_entry", lambda n, p, q: q)
    with pytest.raises(AssertionError, match="parity broke"):
        hadamard.pyramid_plane(direction, 0, 3)
    # one row takes no halving step, so nothing is refused
    assert hadamard.pyramid_plane(direction, 2, 1) == ((0, 1, 2),)
