"""Skew-diagonalization and exact eigenvectors of Krawtchouk matrices.

K maps the truncated binomial vector b^(k) (entries C(k,i), zero beyond k)
to 2^k times the complementary one:  K b^(k) = 2^k b^(n-k).  Collectively
K B = B D with B the unitriangular binomial matrix and D the skew-diagonal
matrix carrying 2^q in column q, so K = B D B^{-1}.

Pairing complementary columns produces genuine eigenvectors once the scalar
2^(k/2) is available, which is why the eigen-factor matrices X and E live in
the quadratic ring Q[sqrt(2)]:

    v(+-, k) = 2^((n-k)/2) b^(k) +- 2^(k/2) b^(n-k),
    K v = +-2^(n/2) v.

Note on indexing: making K B = B D hold forces D's skew entry in column q to
be 2^q (i.e. D_{n-q,q} = 2^q); the n = 3 instance is skewdiag(8, 4, 2, 1).

The builders return what they compute and check nothing themselves;
:func:`spectral_suite_check` reports every identity they stand for.
"""

from __future__ import annotations

from collections import namedtuple
from math import comb

from .core import k_reference
from .matrix import CheckReport, Matrix, check_cells, vector_cells
from .rings import ROOT2, RootTwo, ZZ, sqrt2_power


def binomial_vector(n: int, k: int) -> list:
    """b^(k): entries C(k,i) for i <= k, then zeros, length n+1."""
    if not 0 <= k <= n:
        raise ValueError(f"k={k} out of range for order {n}")
    return [comb(k, i) if i <= k else 0 for i in range(n + 1)]


def binomial_matrix(n: int) -> Matrix:
    """Upper-triangular B with B_{ij} = C(j,i); columns are the b^(k)."""
    return Matrix(ZZ, [[comb(j, i) for j in range(n + 1)]
                       for i in range(n + 1)])


def skew_power_matrix(n: int) -> Matrix:
    """Skew-diagonal D with 2^q in column q, so D * D = 2^n I."""
    return Matrix.skewdiag([2 ** (n - i) for i in range(n + 1)], ZZ)


def b_inverse(n: int) -> Matrix:
    """B^{-1} = S B S with S = diag(1,-1,1,...)."""
    s = Matrix.diag([(-1) ** i for i in range(n + 1)], ZZ)
    return s @ binomial_matrix(n) @ s


def binomial_transform_check(n: int) -> CheckReport:
    """K B = B D, whose column j is K b^(j) = 2^j b^(n-j).

    So a failing cell (i, j) names entry i of K b^(j).
    """
    return check_cells([_transform_check(n, k_reference(n),
                                         binomial_matrix(n))], n=n)


def _transform_check(n: int, k: Matrix, b: Matrix):
    return "K B = B D", (k @ b).cells(b @ skew_power_matrix(n))


def k_from_BDBinv(n: int) -> Matrix:
    """K built as the product B D B^{-1}."""
    return binomial_matrix(n) @ skew_power_matrix(n) @ b_inverse(n)


class EigenFactor(namedtuple("EigenFactor", "order x e")):
    """X and E of the spectral identity K (B X) = (B X) E over Q[sqrt(2)]."""

    __slots__ = ()


def eigen_factors(n: int) -> EigenFactor:
    """The diagonal-plus-skew matrix X and eigenvalue matrix E.

    Column j of B X is the eigenvector of K with eigenvalue +2^(n/2) when
    j <= n/2 and -2^(n/2) otherwise.  For even n the diagonal and skew
    patterns collide at the center cell; the single value 2^(n/4) is
    written once, matching the fact that the odd combination of the two
    central binomial vectors vanishes.
    """
    if n < 0:
        raise ValueError("order must be non-negative")
    zero = RootTwo(0)
    x = [[zero] * (n + 1) for _ in range(n + 1)]
    for j in range(n + 1):
        diag = sqrt2_power(n - j)
        x[j][j] = diag if 2 * j <= n else -diag
        if j != n - j:
            x[n - j][j] = sqrt2_power(j)
    lam = sqrt2_power(n)
    e = Matrix.diag([lam if 2 * j <= n else -lam for j in range(n + 1)], ROOT2)
    return EigenFactor(n, Matrix(ROOT2, x), e)


def eigenvector(n: int, k: int, sign: str) -> list:
    """Eigenvector 2^((n-k)/2) b^(k) +- 2^(k/2) b^(n-k) over Q[sqrt(2)].

    The +/- sign selects the eigenvalue +-2^(n/2), and the vector is column
    k (plus) or n-k (minus) of B X.  For 2k = n the minus combination
    cancels identically and is rejected; the plus combination collapses to
    the single central column 2^(k/2) b^(k).
    """
    if not 0 <= k <= n // 2:
        raise ValueError(f"k={k} must lie in 0..floor(n/2) for order {n}")
    if sign not in ("+", "-"):
        raise ValueError("sign must be '+' or '-'")
    if 2 * k == n and sign == "-":
        raise ValueError("zero vector: the odd combination vanishes at k = n/2")
    if 2 * k == n:
        return [sqrt2_power(k) * x for x in binomial_vector(n, k)]
    lo = binomial_vector(n, k)
    hi = binomial_vector(n, n - k)
    clo, chi = sqrt2_power(n - k), sqrt2_power(k)
    if sign == "-":
        chi = -chi
    return [clo * a + chi * b for a, b in zip(lo, hi)]


def spectral_suite_check(n: int) -> CheckReport:
    """Every identity the builders above stand for, through the builders.

    K B = B D, B (S B S) = I, B D B^{-1} = K, K (B X) = (B X) E and
    E^2 = 2^n I; then each eigenvector equals its column of B X, which the
    identity before proves an eigenvector.  The ``verify`` spectral suite
    runs it once per order.
    """
    ref, b = k_reference(n), binomial_matrix(n)
    factors = eigen_factors(n)
    bx = b.map(RootTwo, ROOT2) @ factors.x
    target = Matrix.identity(n + 1, ROOT2).scale(RootTwo(2 ** n))
    # column j of B X is v(+, j) for 2j <= n and v(-, n-j) beyond
    columns = [(j, j, "+") if 2 * j <= n else (j, n - j, "-")
               for j in range(n + 1)]
    return check_cells([
        _transform_check(n, ref, b),
        ("B (S B S) = I",
         (b @ b_inverse(n)).cells(Matrix.identity(n + 1, ZZ))),
        ("B D B^-1 = K", k_from_BDBinv(n).cells(ref)),
        ("K (B X) = (B X) E",
         (ref.map(RootTwo, ROOT2) @ bx).cells(bx @ factors.e)),
        ("E^2 = 2^n I", (factors.e @ factors.e).cells(target)),
    ] + [(f"eigenvector(n, {k}, {sign}) = column {j} of B X",
          vector_cells(eigenvector(n, k, sign), bx.col(j)))
         for j, k, sign in columns], n=n)
