"""Tensor-power functors and the identities they derive."""

import random
from fractions import Fraction
from math import comb

import pytest

from krawtchouk import core, spectral, sympow
from krawtchouk.matrix import Matrix
from krawtchouk.rings import GAUSS, QQ, ZZ, Gaussian


def rand2(rng, lo=-4, hi=4):
    return Matrix(ZZ, [[rng.randint(lo, hi) for _ in range(2)]
                       for _ in range(2)])


def rand2_gaussian(rng, lo=-4, hi=4):
    return Matrix(GAUSS, [[Gaussian(rng.randint(lo, hi), rng.randint(lo, hi))
                           for _ in range(2)] for _ in range(2)])


def power(x, e, one):
    out = one
    for _ in range(e):
        out = out * x
    return out


def closed_form_group_power(m, n):
    """Entry (p, q) of the n-th symmetric power of [[a, b], [c, d]]:

    sum_k C(n-q, p-k) a^(n-q-p+k) c^(p-k) * C(q, k) b^(q-k) d^k,
    the coefficient of y^p in (a x + c y)^(n-q) (b x + d y)^q.
    """
    one = m.ring.one
    a, b, c, d = m[0, 0], m[0, 1], m[1, 0], m[1, 1]

    def entry(p, q):
        total = m.ring.zero
        for k in range(max(0, p - (n - q)), min(p, q) + 1):
            total = total + (
                power(a, n - q - p + k, one) * power(c, p - k, one)
                * power(b, q - k, one) * power(d, k, one)
                * (comb(n - q, p - k) * comb(q, k)))
        return total

    return Matrix(m.ring, [[entry(p, q) for q in range(n + 1)]
                           for p in range(n + 1)])


@pytest.mark.parametrize("n", range(13))
def test_group_power_matches_the_closed_form(n):
    rng = random.Random(4100 + n)
    mats = [rand2(rng) for _ in range(6)] + \
        [rand2_gaussian(rng) for _ in range(3)]
    # entries are drawn from -4..4, so zeros occur; pin one of each pattern
    mats += [Matrix(ZZ, [[0, 3], [-2, 0]]), Matrix(ZZ, [[2, 0], [0, -3]]),
             Matrix(ZZ, [[0, 0], [5, 1]])]
    for m in mats:
        assert sympow.sym_group_power(m, n) == closed_form_group_power(m, n), m


@pytest.mark.parametrize("n", range(13))
def test_hadamard_group_power_is_krawtchouk(n):
    assert sympow.sym_group_power(sympow.MAT_H, n) == core.k_genfunc(n).mat


def test_integer_power_is_the_generic_rational_expansion():
    # ZZ takes the packed big-int products; QQ still takes the expander
    rng = random.Random(4200)
    for n in range(41):
        # zeros and negatives: a random matrix, then a zero diagonal, then
        # a zero off-diagonal, in turn
        m = rand2(rng, -9, 9)
        if n % 3:
            zeros = [(0, 0), (1, 1)] if n % 3 == 1 else [(0, 1), (1, 0)]
            m = Matrix(ZZ, [[0 if (i, j) in zeros else m[i, j]
                             for j in range(2)] for i in range(2)])
        got = sympow.sym_group_power(m, n)
        assert all(type(x) is int for row in got.data for x in row)
        assert got.map(Fraction, QQ) == \
            sympow.sym_group_power(m.map(Fraction, QQ), n), (m, n)


def test_integer_power_of_the_zero_matrix():
    zero = Matrix.zeros(2, 2)
    assert sympow.sym_group_power(zero, 0) == Matrix.identity(1)
    assert sympow.sym_group_power(zero, 3) == Matrix.zeros(4, 4)


@pytest.mark.parametrize("n", [*range(17), 31, 32, 63, 64, 96, 128, 192,
                               255, 256])
def test_hadamard_power_is_the_reference_at_high_orders(n):
    assert sympow.sym_group_power(sympow.MAT_H, n) == core.k_reference(n)


def test_integer_power_asserts_its_lanes_hold(monkeypatch):
    # column 5 of diag(2, 3)^(5) is 3^5 e_5, the bound m^n itself, in the
    # top lane: one bit less must leave a remainder, not a wrong digit
    diag = Matrix(ZZ, [[2, 0], [0, 3]])
    assert sympow.sym_group_power(diag, 5)[5, 5] == 3 ** 5
    monkeypatch.setattr(sympow, "lane_bits", lambda bound: bound.bit_length())
    with pytest.raises(AssertionError, match="overflowed"):
        sympow.sym_group_power(diag, 5)


def test_group_power_of_special_elements():
    assert sympow.sym_group_power(Matrix.identity(2), 4) == Matrix.identity(5)
    assert sympow.sym_group_power(sympow.MAT_F, 3) == \
        Matrix.skewdiag([1, 1, 1, 1])
    assert sympow.sym_group_power(sympow.MAT_G, 3) == \
        Matrix.diag([1, -1, 1, -1])


def test_algebra_power_of_special_elements():
    assert sympow.sym_algebra_power(sympow.MAT_F, 3) == core.kac_matrix(3)
    assert sympow.sym_algebra_power(sympow.MAT_G, 3) == core.lambda_matrix(3)
    mat_b = Matrix(ZZ, [[0, 1], [-1, 0]])  # the 2x2 image of i
    assert sympow.sym_algebra_power(mat_b, 3) == Matrix(ZZ, [
        [0, 1, 0, 0], [-3, 0, 2, 0], [0, -2, 0, 3], [0, 0, -1, 0]])
    assert sympow.sym_algebra_power(Matrix.zeros(2, 2), 5) == \
        Matrix.zeros(6, 6)
    for n in range(1, 9):
        assert sympow.sym_algebra_power(sympow.MAT_F, n) == core.kac_matrix(n)
        assert sympow.sym_algebra_power(sympow.MAT_G, n) == \
            core.lambda_matrix(n)


def test_functoriality_random():
    rng = random.Random(17)
    for n in range(1, 7):
        for _ in range(8):
            a, b = rand2(rng), rand2(rng)
            assert sympow.sym_group_power(a @ b, n) == \
                sympow.sym_group_power(a, n) @ sympow.sym_group_power(b, n)


def test_additivity_and_bracket_random():
    rng = random.Random(19)
    for n in range(1, 7):
        for _ in range(8):
            a, b = rand2(rng), rand2(rng)
            assert sympow.sym_algebra_power(a + b, n) == \
                sympow.sym_algebra_power(a, n) + sympow.sym_algebra_power(b, n)
            lhs = sympow.sym_algebra_power(a @ b - b @ a, n)
            am = sympow.sym_algebra_power(a, n)
            bm = sympow.sym_algebra_power(b, n)
            assert lhs == am @ bm - bm @ am


def test_derivative_route_agrees_with_dictionary():
    rng = random.Random(23)
    for n in range(13):
        for _ in range(6):
            a = rand2(rng, -9, 9)
            assert sympow.sym_algebra_power_by_derivative(a, n) == \
                sympow.sym_algebra_power(a, n)
    # the lanes hold integer coefficients only
    with pytest.raises(ValueError, match="integer matrix"):
        sympow.sym_algebra_power_by_derivative(
            Matrix(QQ, [[Fraction(1, 2)] * 2] * 2), 2)


def test_algebra_power_operator_dictionary():
    n = 3
    g_alg = sympow.sym_algebra_power(sympow.MAT_G, n)
    assert g_alg == Matrix.diag([n - 2 * q for q in range(n + 1)])
    assert sympow.sym_algebra_power(Matrix.zeros(2, 2), n) == \
        Matrix.zeros(n + 1, n + 1)

    def ladders(a):
        """(superdiagonal, subdiagonal, diagonal) of the operator of a."""
        m = sympow.sym_algebra_power(a, n)
        return ([m[q - 1, q] for q in range(1, n + 1)],
                [m[q + 1, q] for q in range(n)],
                [m[q, q] for q in range(n + 1)])

    up = list(range(1, n + 1))                  # x dy: e_q -> q e_(q-1)
    down = [n - q for q in range(n)]            # y dx: e_q -> (n-q) e_(q+1)
    zero_off, zero_diag = [0] * n, [0] * (n + 1)
    assert ladders(sympow.MAT_L) == (up, zero_off, zero_diag)
    assert ladders(sympow.MAT_R) == (zero_off, down, zero_diag)
    assert ladders(sympow.MAT_F) == (up, down, zero_diag)
    # the image of i: the dictionary and the displayed matrix force
    # x dy - y dx (the sign printed next to the dictionary is a known slip)
    mat_b = Matrix(ZZ, [[0, 1], [-1, 0]])
    assert ladders(mat_b) == (up, [-d for d in down], zero_diag)


def test_ladder_factors():
    raising, lowering = sympow.ladder_factors(3)
    assert raising == [3, 2, 1]
    assert lowering == [1, 2, 3]
    lm = sympow.sym_algebra_power(sympow.MAT_L, 3)
    nm = sympow.sym_algebra_power(sympow.MAT_G, 3)
    assert [lm[q - 1, q] for q in range(1, 4)] == [1, 2, 3]
    assert [nm[q, q] for q in range(4)] == [3, 1, -1, -3]


@pytest.mark.parametrize("n", range(1, 9))
def test_lrn_relations(n):
    assert sympow.lrn_relations_check(n)


def test_halved_bracket_convention():
    # under [X,Y] = (XY - YX)/2 the ladder relations normalize to
    # [N,L] = L, [N,R] = -R, at the price of [L,R] = N/2
    n = 4
    lm = sympow.sym_algebra_power(sympow.MAT_L, n)
    rm = sympow.sym_algebra_power(sympow.MAT_R, n)
    nm = sympow.sym_algebra_power(sympow.MAT_G, n)
    half = lambda x, y: (x @ y - y @ x).map(lambda v: v // 2)
    assert half(nm, lm) == lm
    assert half(nm, rm) == rm.scale(-1)
    assert (nm @ lm - lm @ nm) == lm.scale(2)


@pytest.mark.parametrize("n", range(1, 11))
def test_symmetry_check(n):
    assert sympow.symmetry_check(n)


@pytest.mark.parametrize("n", range(1, 11))
def test_master_from_tensor(n):
    assert sympow.master_from_tensor_check(n)


@pytest.mark.parametrize("n", range(1, 9))
def test_skew_factorization(n):
    assert sympow.skew_factorization_check(n)
    assert sympow.sym_group_power(Matrix(ZZ, [[1, 1], [0, 1]]), n) == \
        spectral.binomial_matrix(n)


def test_kron_power():
    h2 = sympow.kron_power(sympow.MAT_H, 2)
    assert h2 == Matrix(ZZ, [[1, 1, 1, 1], [1, -1, 1, -1],
                             [1, 1, -1, -1], [1, -1, -1, 1]])
    assert sympow.kron_power(sympow.MAT_H, 0) == Matrix(ZZ, [[1]])
    h3 = sympow.kron_power(sympow.MAT_H, 3)
    assert h3.shape == (8, 8)
    assert h3 @ h3 == Matrix.identity(8).scale(8)
    with pytest.raises(ValueError):
        sympow.kron_power(sympow.MAT_H, 15)


def test_box_power():
    assert sympow.box_power(sympow.MAT_G, 2) == Matrix.diag([2, 0, 0, -2])
    assert sympow.box_power(Matrix.zeros(2, 2), 3) == Matrix.zeros(8, 8)
    rng = random.Random(29)
    for n in (2, 3):
        for _ in range(5):
            a, b = rand2(rng), rand2(rng)
            lhs = sympow.box_power(a @ b - b @ a, n)
            am, bm = sympow.box_power(a, n), sympow.box_power(b, n)
            assert lhs == am @ bm - bm @ am


def naive_box_power(a, n):
    """Reference: the sum over slots of I x ... x A x ... x I, by kron."""
    if n == 0:
        return Matrix.zeros(1, 1, a.ring)
    eye = Matrix.identity(2, a.ring)
    total = None
    for slot in range(n):
        term = Matrix.identity(1, a.ring)
        for pos in range(n):
            term = term.kron(a if pos == slot else eye)
        total = term if total is None else total + term
    return total


@pytest.mark.parametrize("n", range(6))
def test_box_power_matches_kron_sum(n):
    rng = random.Random(31 + n)
    mats = [sympow.MAT_F, sympow.MAT_G, sympow.MAT_H, rand2(rng),
            Matrix(QQ, [[Fraction(rng.randint(-9, 9), rng.randint(1, 9))
                         for _ in range(2)] for _ in range(2)])]
    for a in mats:
        box = sympow.box_power(a, n)
        assert box == naive_box_power(a, n), (a, n)
        assert box.ring == a.ring
        assert all(type(x) is type(a.ring.zero) for row in box.data
                   for x in row)


def test_box_power_refuses_before_allocating(monkeypatch):
    def never(*args):
        raise AssertionError("allocated above the entry bound")

    monkeypatch.setattr(sympow, "Matrix", never)
    for n in (sympow.KRON_BOUND + 1, 40, -1):
        with pytest.raises(ValueError, match="bound"):
            sympow.box_power(sympow.MAT_F, n)


@pytest.mark.parametrize("n", range(1, 7))
def test_kron_remark(n):
    assert sympow.kron_remark_check(n)
