"""Krawtchouk matrices and the tridiagonal master-equation machinery.

The order-n Krawtchouk matrix K is the (n+1) x (n+1) integer matrix whose
q-th column lists the coefficients of (1+t)^(n-q) (1-t)^q.  This module
builds K two independent ways (generating-function expansion and the signed
binomial sum), together with the Kac matrix M, the eigenvalue matrix
Lambda = diag(n, n-2, ..., -n), the binomial-weight matrix Gamma, and the
checks for the identities that tie them together, all over the integers:

    M K = K Lambda                  (master equation)
    K K = 2^n I                     (involution)
    Gamma K^T = K Gamma             (orthogonality, K^T = Gamma^-1 K Gamma)
    K Gamma K^T = 2^n Gamma
    K^T D K = 2^n D,  D = lcm(C(n,i)) Gamma^-1  (K^T Gamma^-1 K = 2^n Gamma^-1)

The generating-function route is one O(n^2) sweep: each column is the one
before it times (1-t)/(1+t), and the division by 1+t is exact and asserted
so.

The checks, here and in the other modules, compare against one memoised
reference, :func:`k_reference`; the constructions never read it, so each
stays an independent route to K.  Every check reports through
:func:`krawtchouk.matrix.check_cells`: the first mismatching cell, its two
sides, and the name of the identity it broke.

Two further constructions live in :mod:`krawtchouk.sympow` (symmetric tensor
power of the 2x2 Hadamard matrix) and :mod:`krawtchouk.pathsum` (sum over
lattice paths); :func:`krawtchouk.hadamard.reduce_to_symmetric` gives the
Sylvester-matrix route to the symmetric variant.
"""

from __future__ import annotations

import operator
from collections import namedtuple
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate
from math import comb, lcm

from .matrix import CheckReport, Matrix, check_cells
from .rings import QQ, ZZ

# Above this order the CLI warns about output size, :func:`require_order`
# refuses path sums, words, twistons, pyramid planes and snake figures, and
# the rest of the library works.
DEFAULT_ORDER_BOUND = 64


def require_order(n: int, what: str) -> None:
    """Refuse an order above ``DEFAULT_ORDER_BOUND``, before allocating.

    Every word or subset of n holds up to n positions, a twiston row n + 1
    energies, a pyramid plane's last row n + 1 entries and a snake figure
    n files, so a small count alone does not bound the work.
    """
    if n > DEFAULT_ORDER_BOUND:
        raise ValueError(f"order {n} exceeds the {what} bound "
                         f"{DEFAULT_ORDER_BOUND}")


METHODS = ("GenFunc", "BinomialSum", "PyramidRecurrence")


class KrawtchoukMatrix(namedtuple("KrawtchoukMatrix", "order mat method")):
    """An order-n Krawtchouk matrix tagged with the method that built it.

    It equals, and hashes as, its matrix: the method tag is ignored.
    """

    __slots__ = ()

    def __new__(cls, order: int, mat: Matrix, method: str):
        self = super().__new__(cls, order, mat, method)
        self.__post_init__()  # looked up on the class, so it can be wrapped
        return self

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"unknown construction method {self.method!r}")

    def __getitem__(self, key):
        return self.mat[key]

    def __eq__(self, other):
        if isinstance(other, KrawtchoukMatrix):
            return self.mat == other.mat  # method tags intentionally ignored
        if isinstance(other, Matrix):
            return self.mat == other
        return NotImplemented

    def __ne__(self, other):  # else tuple.__ne__ would answer
        equal = self.__eq__(other)
        return equal if equal is NotImplemented else not equal

    def __hash__(self):
        return hash(self.mat)


def genfunc_column(n: int, q: int) -> list:
    """Coefficients of (1+t)^(n-q) (1-t)^q, lowest degree first.

    Each factor is one Pascal step on the coefficient list c: times 1+t
    is c + t c, times 1-t is c - t c.
    """
    coeffs = [1]
    for step in [operator.add] * (n - q) + [operator.sub] * q:
        coeffs = list(map(step, coeffs + [0], [0] + coeffs))
    return coeffs


def _next_genfunc_column(column: list) -> list:
    """Multiply a column's generating function by (1-t)/(1+t).

    The ascending synthetic division c_i = a_i - c_(i-1) divides by 1+t;
    its last value is the remainder, which must vanish.  Multiplying the
    quotient by 1-t then gives d_i = c_i - c_(i-1).
    """
    quotient = list(accumulate(column, lambda prev, a: a - prev))
    if quotient[-1]:
        raise AssertionError("1+t does not divide the column exactly")
    return list(map(operator.sub, quotient, [0] + quotient[:-1]))


def k_genfunc(n: int) -> KrawtchoukMatrix:
    """Krawtchouk matrix by expanding the column generating functions.

    Column 0 is (1+t)^n; column q+1 is column q times (1-t)/(1+t), an
    exact division and one multiplication, O(n) each, so the whole matrix
    costs O(n^2) operations.
    """
    if n < 0:
        raise ValueError("order must be non-negative")
    cols = [genfunc_column(n, 0)]
    for _ in range(n):
        cols.append(_next_genfunc_column(cols[-1]))
    return KrawtchoukMatrix(n, Matrix(ZZ, zip(*cols)), "GenFunc")


@lru_cache(maxsize=64)
def k_reference(n: int) -> Matrix:
    """K^(n) by the generating function, built once per order.

    The matrix every identity check compares against (``Matrix`` is
    immutable, so sharing it is safe).  Constructions under test never read
    it: they build their own matrix, whose agreement with this one is what
    the construction-equivalence checks establish.
    """
    return k_genfunc(n).mat


def k_entry(n: int, p: int, q: int) -> int:
    """Single entry K^(n)_{pq} via the signed binomial sum."""
    if not (0 <= p <= n and 0 <= q <= n):
        raise ValueError(f"indices ({p},{q}) out of range for order {n}")
    return sum((-1) ** k * comb(q, k) * comb(n - q, p - k)
               for k in range(max(0, p - (n - q)), min(q, p) + 1))


def k_binsum(n: int) -> KrawtchoukMatrix:
    """Krawtchouk matrix from the binomial sum, evaluated on one quarter.

    K_pq = sum_k (-1)^k C(q, k) C(n-q, p-k), with every binomial read from
    rows 0..n of Pascal's triangle, built once by additions.  Column q
    pairs the signed row q with row n-q reversed, so entry (p, q) is one
    dot product of the signed row with a slice of the other.

    The sum itself has two reflections.  Substituting j = q - k in the sum
    for K_(n-p)q turns C(q, k) C(n-q, n-p-k) into C(q, j) C(n-q, p-j) and
    (-1)^k into (-1)^q (-1)^j, so K_(n-p)q = (-1)^q K_pq (rows).
    Substituting j = p - k in the sum for K_p(n-q) turns C(n-q, k)
    C(q, p-k) into C(q, j) C(n-q, p-j) and (-1)^k into (-1)^p (-1)^j, so
    K_p(n-q) = (-1)^p K_pq (columns).  So the sum runs only over rows
    and columns 0..n//2, about a quarter of the cells, where every term
    index k = 0..min(p, q) is in range.  Each kept column gains rows
    n//2+1..n by the row reflection, then columns n//2+1..n follow by the
    column reflection.
    """
    if n < 0:
        raise ValueError("order must be non-negative")
    pascal = [[1]]
    for _ in range(n):
        row = pascal[-1]
        pascal.append(list(map(operator.add, [0] + row, row + [0])))
    half = n // 2
    cols = []
    for q in range(half + 1):
        signed = [-c if k % 2 else c for k, c in enumerate(pascal[q])]
        # rest[n - q - p + k] = C(n-q, p-k); map stops after min(p, q) + 1
        rest = pascal[n - q][::-1]
        col = [sum(map(operator.mul, signed, rest[n - q - p:]))
               for p in range(half + 1)]
        tail = col[:n - half][::-1]
        col += map(operator.neg, tail) if q % 2 else tail
        cols.append(col)
    for q in range(n - half - 1, -1, -1):
        col = cols[q].copy()
        col[1::2] = map(operator.neg, col[1::2])
        cols.append(col)
    return KrawtchoukMatrix(n, Matrix(ZZ, zip(*cols)), "BinomialSum")


def kac_matrix(n: int) -> Matrix:
    """Tridiagonal Kac matrix: superdiagonal 1..n, subdiagonal n..1."""
    if n < 1:
        raise ValueError("Kac matrix needs order >= 1")
    m = [[0] * (n + 1) for _ in range(n + 1)]
    for j in range(n):
        m[j][j + 1] = j + 1      # drawing one of the j+1 marked balls
        m[j + 1][j] = n - j      # or one of the n-j unmarked ones
    return Matrix(ZZ, m)


def lambda_matrix(n: int) -> Matrix:
    """diag(n, n-2, ..., -n), the Kac-matrix spectrum."""
    if n < 0:
        raise ValueError("order must be non-negative")
    return Matrix.diag([n - 2 * i for i in range(n + 1)], ZZ)


def gamma_matrix(n: int) -> Matrix:
    """diag(C(n,0), ..., C(n,n)) defining the binomial inner product."""
    return Matrix.diag([comb(n, i) for i in range(n + 1)], ZZ)


def gamma_inverse(n: int) -> Matrix:
    return Matrix.diag([Fraction(1, comb(n, i)) for i in range(n + 1)], QQ)


def k_symmetric(n: int) -> Matrix:
    """Symmetric Krawtchouk matrix S = K * Gamma (column q scaled by C(n,q))."""
    k = k_reference(n)
    return Matrix(ZZ, [[k[p, q] * comb(n, q) for q in range(n + 1)]
                       for p in range(n + 1)])


# ---------------------------------------------------------------------------
# identity checks
# ---------------------------------------------------------------------------

def master_check(n: int) -> CheckReport:
    """M K = K Lambda, exactly."""
    if n < 1:
        raise ValueError("master equation needs order >= 1")
    k = k_reference(n)
    return check_cells([("M K = K Lambda",
                         (kac_matrix(n) @ k).cells(k @ lambda_matrix(n)))],
                       n=n)


def involution_check(n: int) -> CheckReport:
    """K^2 = 2^n I, exactly.

    When K has both reversals (:func:`symmetry_identities_check`), K K
    is two products of its rows and columns 0..n//2
    (:func:`_square_by_reversals`); otherwise it is ``k @ k``.  Both give
    the same matrix, so the report does not depend on the route.
    """
    k = k_reference(n)
    target = Matrix.diag([2 ** n] * (n + 1), ZZ)
    square = _square_by_reversals(k) if symmetry_identities_check(n) else k @ k
    return check_cells([("K^2 = 2^n I", square.cells(target))], n=n)


def _square_by_reversals(k: Matrix) -> Matrix:
    """K K for an integer K with K[n-p][q] = (-1)^q K[p][q] and
    K[p][n-q] = (-1)^p K[p][q], from rows and columns 0..n//2.

    With h = n//2, :func:`_times_by_row_reversal` gives columns 0..h of
    K K as K times columns 0..h of K, from rows 0..h.  Both reversals give
    (K K)[i][n-j] = (K K)[n-i][j], and so (K K)[n-i][n-j] = (K K)[i][j],
    which fill in the other columns: (h + 1)^2 (n + 1) multiply-adds in
    all, about a quarter of the generic product's (n + 1)^3.
    """
    n = k.rows - 1
    half = n // 2
    left = _times_by_row_reversal(
        k, Matrix(ZZ, [row[:half + 1] for row in k.data])).data
    return Matrix(ZZ, [row + left[n - i][:n - half][::-1]
                       for i, row in enumerate(left)])


def _times_by_row_reversal(k: Matrix, x: Matrix) -> Matrix:
    """K X from rows 0..n//2 of a K of n + 1 rows with the row reversal
    K[n-i][j] = (-1)^j K[i][j]; otherwise ``k @ x``.

    With h = n//2, E is rows 0..h of K on its even columns times the even
    rows of X, and O the same over the odd columns and rows.  Row i of
    K X is E + O.  The row reversal makes row n-i of K row i with its odd
    entries negated, so row n-i of K X is E - O.  The two products make
    (h + 1) (n + 1) multiply-adds per column of X, about half the generic
    product's, and :meth:`krawtchouk.matrix.Matrix.mul` picks each one's
    route and lanes.  Rows h+1..n of K are read only to check the
    reversal on the matrix given.  A K without it, with no odd column, or
    with a width that X cannot take is multiplied by ``k @ x``, so a
    report on the product, or its error, does not depend on the route.
    """
    n = k.rows - 1
    half = n // 2
    rows = k.data
    # an odd entry and its reversal add to 0, which allocates no int
    if (k.cols < 2 or k.cols != x.rows
            or any(rows[n - i][::2] != rows[i][::2]
                   or any(map(operator.add, rows[n - i][1::2], rows[i][1::2]))
                   for i in range(n - half))):
        return k @ x

    def half_product(start: int) -> tuple:
        return (Matrix(k.ring, [row[start::2] for row in rows[:half + 1]])
                @ Matrix(x.ring, x.data[start::2])).data

    top, bottom = [], []
    for e, o in zip(half_product(0), half_product(1)):
        top.append(list(map(operator.add, e, o)))
        bottom.append(list(map(operator.sub, e, o)))
    # rows n//2+1..n are rows n-i for i = n - n//2 - 1 down to 0
    return Matrix(k.ring, top + bottom[:n - half][::-1])


def ortho_check(n: int) -> CheckReport:
    """The three binomial-weight orthogonality identities over the integers.

    With G the binomial diagonal matrix and D = lcm(C(n,i)) G^-1, the
    integer diagonal that clears G^-1 of denominators:

        G K^T = K G          (K^T = G^-1 K G)
        K G K^T = 2^n G
        K^T D K = 2^n D      (K^T G^-1 K = 2^n G^-1)

    Products with G and D are row and column scalings.
    """
    if n < 1:
        raise ValueError("orthogonality check needs order >= 1")
    k = k_reference(n)
    kt = k.T
    g = gamma_matrix(n)
    weights = [g[i, i] for i in range(n + 1)]
    top = lcm(*weights)
    d = Matrix.diag([top // w for w in weights], ZZ)
    kg = k @ g
    scale = 2 ** n
    return check_cells([
        ("G K^T = K G", (g @ kt).cells(kg)),
        ("K G K^T = 2^n G", (kg @ kt).cells(g.scale(scale))),
        ("K^T D K = 2^n D, D = lcm C(n,i) G^-1",
         (kt @ d @ k).cells(d.scale(scale))),
    ], n=n)


def covector_transform(n: int, row) -> list:
    """Act on a covector from the right: row -> row * K^(n).

    Sends sampled exponential sequences to sampled exponential sequences,
    e.g. [8,4,2,1] -> [27,9,3,1] at n = 3.
    """
    row = list(row)
    if len(row) != n + 1:
        raise ValueError(f"covector length {len(row)} != {n + 1}")
    return k_genfunc(n).mat.vector_mul(row)


def construction_equivalence_check(n: int) -> CheckReport:
    """The two in-module constructions agree entrywise."""
    a, b = k_genfunc(n), k_binsum(n)
    return check_cells([("GenFunc = BinomialSum", a.mat.cells(b.mat))], n=n)


def symmetry_identities_check(n: int) -> CheckReport:
    """K_{pq} = (-1)^q K_{n-p,q} and K_{pq} = (-1)^p K_{p,n-q}.

    The same two reversals as :func:`krawtchouk.sympow.symmetry_check`,
    cell by cell.  No ``verify`` suite runs this one on its own;
    :func:`involution_check` reads it as the gate of its quarter square.
    """
    k = k_reference(n)
    rows_reversed = [list(row) for row in reversed(k.data)]
    for row in rows_reversed:
        row[1::2] = map(operator.neg, row[1::2])
    cols_reversed = [tuple(map(operator.neg, row[::-1])) if p % 2
                     else row[::-1] for p, row in enumerate(k.data)]
    return check_cells([
        ("row reversal symmetry", k.cells(Matrix(ZZ, rows_reversed))),
        ("column reversal symmetry", k.cells(Matrix(ZZ, cols_reversed))),
    ], n=n)
