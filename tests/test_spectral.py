"""Binomial transform, skew-diagonalization, and exact eigenvectors."""

import pytest

from krawtchouk import core, spectral, verify
from krawtchouk.matrix import Matrix
from krawtchouk.rings import ROOT2, RootTwo, ZZ, sqrt2_power


def test_binomial_vectors():
    assert spectral.binomial_vector(3, 1) == [1, 1, 0, 0]
    assert spectral.binomial_vector(3, 3) == [1, 3, 3, 1]
    assert spectral.binomial_vector(4, 2) == [1, 2, 1, 0, 0]
    with pytest.raises(ValueError):
        spectral.binomial_vector(3, 4)


def test_binomial_matrix_and_inverse():
    b3 = spectral.binomial_matrix(3)
    assert b3 == Matrix(ZZ, [[1, 1, 1, 1], [0, 1, 2, 3],
                             [0, 0, 1, 3], [0, 0, 0, 1]])
    inv3 = spectral.b_inverse(3)
    assert inv3 == Matrix(ZZ, [[1, -1, 1, -1], [0, 1, -2, 3],
                               [0, 0, 1, -3], [0, 0, 0, 1]])
    assert spectral.b_inverse(1) == Matrix(ZZ, [[1, -1], [0, 1]])
    for n in (2, 4, 6, 9):
        b = spectral.binomial_matrix(n)
        assert b @ spectral.b_inverse(n) == Matrix.identity(n + 1)


def test_skew_power_matrix_layout():
    d3 = spectral.skew_power_matrix(3)
    assert d3 == Matrix(ZZ, [[0, 0, 0, 8], [0, 0, 4, 0],
                             [0, 2, 0, 0], [1, 0, 0, 0]])
    for n in range(9):
        d = spectral.skew_power_matrix(n)
        assert d @ d == Matrix.identity(n + 1).scale(2 ** n)


def test_transform_of_binomial_vectors():
    k3 = core.k_genfunc(3).mat
    assert k3.mul_vector([1, 1, 0, 0]) == [2, 4, 2, 0]
    assert spectral.binomial_transform_check(0)
    for n in range(1, 13):
        assert spectral.binomial_transform_check(n)


@pytest.mark.parametrize("n", range(11))
def test_k_from_bdb_inverse(n):
    assert spectral.k_from_BDBinv(n) == core.k_genfunc(n).mat


def bumped(mat: Matrix, i: int, j: int) -> Matrix:
    rows = [list(row) for row in mat.data]
    rows[i][j] += 1
    return Matrix(mat.ring, rows)


# the builders check nothing themselves: a fault planted in one at order 3
# reaches the spectral suite's report, under the first check that reads it
PLANTED = [
    # (K' B)[2, 1] gains B[1, 1] = 1 over K b^(1) = 2 b^(2), whose entry 2
    # is 2 = (B D)[2, 1]
    ("k_reference", lambda k: bumped(k, 2, 1),
     ("K B = B D", [2, 1], "3", "2")),
    # (B B')[0, 3] gains B[0, 0] = 1
    ("b_inverse", lambda inv: bumped(inv, 0, 3),
     ("B (S B S) = I", [0, 3], "1", "0")),
    # K[2, 1] = -1
    ("k_from_BDBinv", lambda k: bumped(k, 2, 1),
     ("B D B^-1 = K", [2, 1], "0", "-1")),
    # column 0 of B X is v = [1+2√2, 3, 3, 1] with eigenvalue 2√2, so row 0
    # of K (B X) reads 2√2 (1+2√2) and of (B X) (-E) its negative; -E still
    # squares to 2^3 I
    ("eigen_factors", lambda f: f._replace(e=f.e.scale(RootTwo(-1))),
     ("K (B X) = (B X) E", [0, 0], "8+2√2", "-8-2√2")),
    ("eigenvector", lambda v: [-x for x in v],
     ("eigenvector(n, 0, +) = column 0 of B X", [0], "-1-2√2", "1+2√2")),
]


def test_self_checks_name_their_check_order_and_cell(monkeypatch):
    for name, fault, (check, location, lhs, rhs) in PLANTED:
        real = getattr(spectral, name)

        def planted(n, *args, real=real, fault=fault):
            return fault(real(n, *args)) if n == 3 else real(n, *args)

        with monkeypatch.context() as patch:
            patch.setattr(spectral, name, planted)
            report, = verify.run_suites(["spectral"], n_max=4)
        assert report.failures == [{"n": 3, "check": check,
                                    "location": location,
                                    "lhs": lhs, "rhs": rhs}], name


def test_eigen_factor_matrices_match_worked_example():
    s2 = sqrt2_power
    ef3 = spectral.eigen_factors(3)
    expected_x = Matrix(ROOT2, [
        [s2(3), RootTwo(0), RootTwo(0), s2(3)],
        [RootTwo(0), RootTwo(2), RootTwo(2), RootTwo(0)],
        [RootTwo(0), s2(1), -s2(1), RootTwo(0)],
        [RootTwo(1), RootTwo(0), RootTwo(0), RootTwo(-1)],
    ])
    assert ef3.x == expected_x
    lam = s2(3)
    assert ef3.e == Matrix.diag([lam, lam, -lam, -lam], ROOT2)

    ef2 = spectral.eigen_factors(2)
    expected_x2 = Matrix(ROOT2, [
        [RootTwo(2), RootTwo(0), RootTwo(2)],
        [RootTwo(0), s2(1), RootTwo(0)],
        [RootTwo(1), RootTwo(0), RootTwo(-1)],
    ])
    assert ef2.x == expected_x2
    bx = spectral.binomial_matrix(2).map(RootTwo, ROOT2) @ ef2.x
    assert bx.col(1) == [s2(1), s2(1), RootTwo(0)]


def test_eigenvectors_explicit():
    v = spectral.eigenvector(3, 0, "+")
    assert v == [RootTwo(1, 2), RootTwo(3), RootTwo(3), RootTwo(1)]
    center = spectral.eigenvector(2, 1, "+")
    assert center == [RootTwo(0, 1), RootTwo(0, 1), RootTwo(0)]
    with pytest.raises(ValueError, match="zero vector"):
        spectral.eigenvector(2, 1, "-")
    with pytest.raises(ValueError):
        spectral.eigenvector(4, 3, "+")
    with pytest.raises(ValueError):
        spectral.eigenvector(4, 1, "x")
    minus = spectral.eigenvector(1, 0, "-")
    k1 = core.k_genfunc(1).mat.map(RootTwo, ROOT2)
    assert k1.mul_vector(minus) == [-sqrt2_power(1) * x for x in minus]
    assert spectral.eigenvector(0, 0, "+") == [RootTwo(1)]
    with pytest.raises(ValueError, match="zero vector"):
        spectral.eigenvector(0, 0, "-")


@pytest.mark.parametrize("n", range(11))
def test_spectral_decomposition_exact(n):
    factors = spectral.eigen_factors(n)
    b = spectral.binomial_matrix(n).map(RootTwo, ROOT2)
    bx = b @ factors.x
    k = core.k_genfunc(n).mat.map(RootTwo, ROOT2)
    assert k @ bx == bx @ factors.e
    lam = sqrt2_power(n)
    zero = [RootTwo(0)] * (n + 1)
    for j in range(n + 1):
        column = bx.col(j)
        assert column != zero
        sign = 1 if 2 * j <= n else -1
        expected = [sign * lam * x for x in column]
        assert k.mul_vector(column) == expected
    # eigenvalue consistency with the involution
    assert factors.e @ factors.e == \
        Matrix.identity(n + 1, ROOT2).scale(RootTwo(2 ** n))
    # X itself is invertible: outside its diagonal and skew diagonal it is
    # zero, so up to a permutation it is the 2x2 blocks on rows and columns
    # {j, n-j}, j < n/2, plus the center entry for even n, and none of them
    # is singular
    x = factors.x
    idx = range(n + 1)
    assert all(x[i, j] == 0 for i in idx for j in idx if i not in (j, n - j))
    for j in range((n + 1) // 2):
        i = n - j
        assert x[j, j] * x[i, i] - x[j, i] * x[i, j] != 0
    if n % 2 == 0:
        assert x[n // 2, n // 2] != 0
