"""Binary subspaces and the MacWilliams transform."""

import random
import tracemalloc
from math import comb

import pytest

from krawtchouk import core, gf2
from krawtchouk.matrix import Matrix
from krawtchouk.spectral import binomial_vector


def test_bitstring_parsing():
    assert gf2.vector_from_bits("110") == 0b011  # coordinate 1 first
    assert gf2.vector_to_bits(0b011, 3) == "110"
    with pytest.raises(ValueError):
        gf2.vector_from_bits("10x")


def test_subspace_construction_and_dims():
    assert gf2.subspace_from(["110"], 3).dim == 1
    assert gf2.subspace_from(["110", "110"], 3).dim == 1
    assert gf2.subspace_from(["100", "010", "110"], 3).dim == 2
    assert gf2.subspace_from([], 4).dim == 0
    with pytest.raises(ValueError):
        gf2.subspace_from([], None)
    with pytest.raises(ValueError):
        gf2.subspace_from([0b1000], 3)


def test_a_bitstring_longer_than_n_is_refused():
    # the extra coordinates are 0, so the packed vector would fit in n bits
    with pytest.raises(ValueError, match="'110' is longer than n = 2"):
        gf2.subspace_from(["110"], 2)
    with pytest.raises(ValueError, match="'0000' is longer than n = 3"):
        gf2.subspace_from(["100", "0000"], 3)
    assert gf2.subspace_from(["110"], 4).basis == (0b011,)  # shorter is fine


def test_rref_is_canonical():
    a = gf2.subspace_from(["110", "011"], 3)
    b = gf2.subspace_from(["101", "110"], 3)
    assert a.basis == b.basis  # same span, same canonical form
    c = gf2.subspace_from(["011"], 3)
    assert a.basis != c.basis


def test_rref_canonical_under_regeneration():
    # rebuilding a subspace from any generating subset of its own span
    # must reproduce the identical basis tuple, and the span itself
    rng = random.Random(77)
    for _ in range(150):
        n = rng.randint(1, 8)
        space = gf2.random_subspace(rng, n)
        span = list(space.vectors())
        sample = [rng.choice(span) for _ in range(2 * n)] + span
        rng.shuffle(sample)
        rebuilt = gf2.subspace_from(sample, n)
        assert rebuilt.basis == space.basis
        assert sorted(rebuilt.vectors()) == sorted(span)
        # every basis row has its pivot bit cleared from all other rows
        for row in rebuilt.basis:
            pivot = row & -row
            assert all(other == row or not other & pivot
                       for other in rebuilt.basis)


def test_membership_and_enumeration():
    w = gf2.subspace_from(["110", "001"], 3)
    members = sorted(w.vectors())
    assert len(members) == 4
    assert members == [0b000, 0b011, 0b100, 0b111]
    assert 0b001 not in members  # "100" is outside span{110, 001}
    assert 0b010 not in members


def test_complement_examples():
    w = gf2.subspace_from(["110"], 3)
    perp = gf2.complement(w)
    assert perp.dim == 2
    assert sorted(perp.vectors()) == sorted(
        gf2.subspace_from(["110", "001"], 3).vectors())
    zero = gf2.subspace_from([], 3)
    assert gf2.complement(zero).dim == 3
    full = gf2.subspace_from(["100", "010", "001"], 3)
    assert gf2.complement(full).dim == 0


def test_double_complement_random():
    rng = random.Random(31)
    for _ in range(100):
        n = rng.randint(1, 10)
        w = gf2.random_subspace(rng, n)
        assert gf2.complement(gf2.complement(w)).basis == w.basis
        assert w.dim + gf2.complement(w).dim == n


def test_weight_characters():
    w = gf2.subspace_from(["110"], 3)
    assert gf2.weight_character(w) == [1, 0, 1, 0]
    perp = gf2.subspace_from(["110", "001"], 3)
    assert gf2.weight_character(perp) == [1, 1, 1, 1]
    full = gf2.subspace_from([1 << i for i in range(5)], 5)
    assert gf2.weight_character(full) == \
        [comb(5, i) for i in range(6)]
    for n in range(1, 8):
        space = gf2.random_subspace(random.Random(n), n)
        counts = gf2.weight_character(space)
        assert counts[0] == 1
        assert sum(counts) == 2 ** space.dim


def _subspace_of_dim(rng, n, dim):
    """A seeded subspace of Z_2^n of exactly the given dimension."""
    vectors = []
    while len(gf2.subspace_from(vectors, n).basis) < dim:
        vectors.append(rng.getrandbits(n))
    return gf2.subspace_from(vectors, n)


def _tally(space):
    """The per-vector count of the Gray-code walk over the whole space."""
    tally = [0] * (space.n + 1)
    for vec in space.vectors():
        tally[vec.bit_count()] += 1
    return tally


@pytest.mark.parametrize("dim", range(gf2.BLOCK + 5))
def test_blocked_character_is_the_tally_of_every_vector(dim):
    # both sides of the block edge: the first BLOCK basis rows are the bit
    # positions of the planes, the rest walked by Gray code
    rng = random.Random(1000 + dim)
    for n in sorted({max(dim, 1), min(dim + 2, 18), 18}):
        space = _subspace_of_dim(rng, n, dim)
        counts = gf2.weight_character(space)
        assert counts == _tally(space)
        assert sum(counts) == 2 ** dim


@pytest.mark.parametrize("n", [40, 64])
@pytest.mark.parametrize("dim", [0, 5, gf2.BLOCK + 2])
def test_wide_character_is_the_tally_of_every_vector(n, dim):
    # the block rows live on the low half of the coordinates and the rest
    # on the high half, so the planes of the high half are all zero and
    # only the Gray-code walk complements them
    rng = random.Random(n * 100 + dim)
    half = n // 2
    low = _subspace_of_dim(rng, half, min(dim, gf2.BLOCK)).basis
    high = [row << half for row in
            _subspace_of_dim(rng, n - half, dim - len(low)).basis]
    space = gf2.subspace_from(list(low) + high, n)
    assert space.dim == dim
    assert not any(row >> half for row in space.basis[:gf2.BLOCK])
    assert not any(row & ((1 << half) - 1) for row in space.basis[gf2.BLOCK:])
    assert gf2.weight_character(space) == _tally(space)
    mixed = _subspace_of_dim(rng, n, dim)  # rows on every coordinate
    assert gf2.weight_character(mixed) == _tally(mixed)


def test_weight_character_counts_the_full_space_in_little_memory():
    full = gf2.subspace_from([1 << i for i in range(16)], 16)
    tracemalloc.start()
    try:
        counts = gf2.weight_character(full)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert counts == [comb(16, w) for w in range(17)]
    # sixteen planes of 2^BLOCK bits and a few digit and mask ints of that
    # width keep the peak near 23 KB; a list of the 2^BLOCK vectors of a
    # block would take several times that
    assert peak < 2 ** 16, peak


def test_macwilliams_check_reports_the_checks_it_shares(monkeypatch):
    # a fault that leaves the MacWilliams identity standing still fails
    w = gf2.subspace_from(["110"], 3)
    real_complement = gf2.complement
    monkeypatch.setattr(gf2, "complement",
                        lambda s: real_complement(s) if s is w else s)
    report = gf2.macwilliams_check(w)      # W-perp-perp read as W-perp
    assert (report.note, report.location) == ("double complement", None)
    monkeypatch.undo()

    # K[0, 1] + 1 leaves column 0 = K char({0}) right, but not K (K char)
    real = core.k_reference(4)
    rows = [list(row) for row in real.data]
    rows[0][1] += 1
    monkeypatch.setattr(gf2, "k_reference", lambda n: Matrix(real.ring, rows))
    report = gf2.macwilliams_check(gf2.subspace_from([], 4))
    assert (report.note, report.location) == ("K (K char) = 2^n char", (0,))
    assert (report.lhs, report.rhs) == ("20", "16")  # 16 + C(4, 1)


def test_macwilliams_worked_example():
    w = gf2.subspace_from(["110"], 3)
    assert gf2.macwilliams_check(w)
    # 2 * [1,1,1,1] = K3 * [1,0,1,0]
    assert core.k_genfunc(3).mat.mul_vector([1, 0, 1, 0]) == [2, 2, 2, 2]


def test_macwilliams_span10_in_z2_squared():
    w = gf2.subspace_from(["10"], 2)
    assert gf2.weight_character(w) == [1, 1, 0]
    perp = gf2.complement(w)
    assert gf2.weight_character(perp) == [1, 1, 0]
    assert core.k_genfunc(2).mat.mul_vector([1, 1, 0]) == [2, 2, 0]
    assert gf2.macwilliams_check(w)


def test_macwilliams_full_space():
    for n in range(1, 8):
        full = gf2.subspace_from([1 << i for i in range(n)], n)
        assert gf2.macwilliams_check(full)
        char = gf2.weight_character(full)
        image = core.k_genfunc(n).mat.mul_vector(char)
        assert image == [2 ** n] + [0] * n


def test_macwilliams_random_subspaces():
    rng = random.Random(42)
    for _ in range(500):
        n = rng.randint(2, 12)
        space = gf2.random_subspace(rng, n)
        assert gf2.macwilliams_check(space), str(space)
    for n in range(13, gf2.CHECK_BOUND + 1):  # up to the check's bound
        for _ in range(6):
            space = gf2.random_subspace(rng, n)
            assert gf2.macwilliams_check(space), str(space)


def test_scaling_is_cardinality_not_dimension():
    # span{e1} in Z2^2: K char(W) = 2 char(W-perp) although dim W-perp = 1
    w = gf2.subspace_from(["10"], 2)
    perp_char = gf2.weight_character(gf2.complement(w))
    image = core.k_genfunc(2).mat.mul_vector(
        gf2.weight_character(w))
    assert image == [2 * c for c in perp_char]
    assert image != [1 * c for c in perp_char]


def test_coordinate_subspaces_reproduce_binomial_transform():
    for n in range(1, 10):
        for k in range(n + 1):
            axes = gf2.subspace_from([1 << i for i in range(k)], n)
            assert gf2.weight_character(axes) == \
                binomial_vector(n, k)
            assert gf2.coordinate_subspace_note(axes)
    with pytest.raises(ValueError, match="standard basis"):
        gf2.coordinate_subspace_note(gf2.subspace_from(["110"], 3))


def test_double_transform_consistency():
    rng = random.Random(7)
    for _ in range(50):
        n = rng.randint(1, 10)
        space = gf2.random_subspace(rng, n)
        char = gf2.weight_character(space)
        k = core.k_genfunc(n).mat
        assert k.mul_vector(k.mul_vector(char)) == [2 ** n * c for c in char]


def test_enumeration_bound():
    wide = gf2.subspace_from([1 << i for i in range(25)], 25)
    with pytest.raises(ValueError, match="enumeration bound"):
        list(wide.vectors())
    with pytest.raises(ValueError, match="enumeration bound"):
        gf2.weight_character(wide)
    with pytest.raises(ValueError, match="bound"):
        gf2.macwilliams_check(gf2.subspace_from(["1" * 17], 17))
