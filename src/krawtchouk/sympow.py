"""Tensor powers of 2x2 matrices acting on binary forms.

A 2x2 matrix A acts on the n+1 dimensional space of degree-n homogeneous
polynomials in x, y two ways:

* as a group element, by substitution: the matrix ``sym_group_power(A, n)``
  has column q the coefficients of (a x + c y)^(n-q) (b x + d y)^q in the
  monomial basis e_p = x^(n-p) y^p, for A = [[a, b], [c, d]] (note the
  transpose: the action is precomposition with A^T);

* as a Lie algebra element, by derivation: ``sym_algebra_power(A, n)`` is
  the t-coefficient of ``sym_group_power(I + tA, n)``, equivalently the
  matrix of the first-order operator  a x dx + b x dy + c y dx + d y dy.

The Hadamard matrix H = [[1,1],[1,-1]] then reproduces all three actors of
the master equation in one stroke: H^group = K, F^algebra = Kac M,
G^algebra = Lambda.  Ordinary Kronecker powers and Kronecker-sum ("boxed")
powers are provided for the unsymmetrized comparison.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import k_reference, kac_matrix, lambda_matrix
from .matrix import CheckReport, Matrix, check_cells
from .rings import Poly2, POLY2, ring_of

# A 2^n x 2^n power holds 4^n entries.  kron_power traced ~19 bytes per
# entry at n = 6..10 (19.6 MB at n = 10), 4x more per order: ~5 GB at n = 14.
KRON_ENTRY_BOUND = 4 ** 10
KRON_BOUND = 10  # largest n with 4^n <= KRON_ENTRY_BOUND

MAT_F = Matrix.from_rows([[0, 1], [1, 0]])
MAT_G = Matrix.from_rows([[1, 0], [0, -1]])
MAT_B = Matrix.from_rows([[0, 1], [-1, 0]])   # the 2x2 image of i
MAT_H = Matrix.from_rows([[1, 1], [1, -1]])
MAT_L = Matrix.from_rows([[0, 1], [0, 0]])    # lowering: x dy
MAT_R = Matrix.from_rows([[0, 0], [1, 0]])    # raising:  y dx


def _require_2x2(a: Matrix):
    if a.shape != (2, 2):
        raise ValueError(f"need a 2x2 matrix, got {a.shape}")


def sym_group_power(a: Matrix, n: int) -> Matrix:
    """Symmetric n-th power of a group element (substitution action)."""
    _require_2x2(a)
    if n < 0:
        raise ValueError("power must be non-negative")
    ring = a.ring
    zero, one = ring.zero, ring.one
    top = (a[0, 0], a[1, 0])      # A^T applied to (x, y): first output
    bot = (a[0, 1], a[1, 1])      # second output
    cols = []
    for q in range(n + 1):
        coeffs = [one]            # coefficients in y-degree, i.e. e-index
        for _ in range(n - q):
            coeffs = _mul_linear_form(coeffs, top, zero)
        for _ in range(q):
            coeffs = _mul_linear_form(coeffs, bot, zero)
        cols.append(coeffs)
    return Matrix(ring, [[cols[q][p] for q in range(n + 1)]
                         for p in range(n + 1)])


def _mul_linear_form(coeffs, form, zero):
    """Multiply a polynomial in y/x-grading by (form[0] x + form[1] y)."""
    u, v = form
    out = [zero] * (len(coeffs) + 1)
    for i, c in enumerate(coeffs):
        out[i] = out[i] + c * u
        out[i + 1] = out[i + 1] + c * v
    return out


def sym_algebra_power(a: Matrix, n: int) -> Matrix:
    """Symmetric n-th power of a Lie algebra element (derivation action).

    Directly from the operator dictionary: for A = [[al, be], [ga, de]]
    acting as al*x dx + be*x dy + ga*y dx + de*y dy on e_q = x^(n-q) y^q,

        entry (q-1, q) = be * q
        entry (q,   q) = al * (n-q) + de * q
        entry (q+1, q) = ga * (n-q)
    """
    _require_2x2(a)
    if n < 0:
        raise ValueError("power must be non-negative")
    ring = a.ring
    al, be, ga, de = a[0, 0], a[0, 1], a[1, 0], a[1, 1]
    out = [[ring.zero] * (n + 1) for _ in range(n + 1)]
    for q in range(n + 1):
        out[q][q] = al * ring.coerce(n - q) + de * ring.coerce(q)
        if q > 0:
            out[q - 1][q] = be * ring.coerce(q)
        if q < n:
            out[q + 1][q] = ga * ring.coerce(n - q)
    return Matrix(ring, out)


def sym_algebra_power_by_derivative(a: Matrix, n: int) -> Matrix:
    """Cross-check route: t-coefficient of sym_group_power(I + tA, n).

    Runs the group construction over the polynomial ring with t standing in
    for the first generator, then extracts the linear coefficient -- an
    exact derivative, no limits involved.
    """
    _require_2x2(a)
    t = Poly2.gen_a()
    curve = Matrix(POLY2, [
        [1 + t * a[0, 0], t * a[0, 1]],
        [t * a[1, 0], 1 + t * a[1, 1]],
    ])
    power = sym_group_power(curve, n)
    return power.map(lambda p: p.terms.get((1, 0), 0), ring_of(a[0, 0]))


@dataclass(frozen=True)
class Sl2Operator:
    """First-order operator c_xx x dx + c_xy x dy + c_yx y dx + c_yy y dy."""

    c_xx: object
    c_xy: object
    c_yx: object
    c_yy: object

    def matrix(self, n: int) -> Matrix:
        mat2 = Matrix.from_rows([[self.c_xx, self.c_xy],
                                 [self.c_yx, self.c_yy]])
        return sym_algebra_power(mat2, n)


def sl2_operator(a: Matrix) -> Sl2Operator:
    """Operator dictionary [[al,be],[ga,de]] -> al x dx + be x dy + ga y dx + de y dy.

    F -> x dy + y dx, G -> x dx - y dy (number operator), the lowering
    matrix [[0,1],[0,0]] -> x dy, the raising matrix [[0,0],[1,0]] -> y dx,
    and the image of i, [[0,1],[-1,0]], -> x dy - y dx.
    """
    _require_2x2(a)
    return Sl2Operator(a[0, 0], a[0, 1], a[1, 0], a[1, 1])


def require_kron_order(n: int) -> None:
    """Refuse, before allocating, a power above KRON_ENTRY_BOUND entries."""
    if not 0 <= n <= KRON_BOUND:
        raise ValueError(f"Kronecker power bound is 0..{KRON_BOUND} "
                         f"(4^n <= {KRON_ENTRY_BOUND} entries)")


def kron_power(a: Matrix, n: int) -> Matrix:
    """Plain n-fold Kronecker power, 2^n x 2^n."""
    _require_2x2(a)
    require_kron_order(n)
    out = Matrix.identity(1, a.ring)
    for _ in range(n):
        out = out.kron(a)
    return out


def box_power(a: Matrix, n: int) -> Matrix:
    """Kronecker-sum power: sum over slots of I x ... x A x ... x I.

    Slot s acts on bit k = n-1-s of the 2^n indices, so row r holds the
    sum of A[r_k, r_k] over all bits on its diagonal and A[r_k, 1-r_k] at
    column r ^ 2^k: at most n+1 nonzeros, written in place.
    """
    _require_2x2(a)
    require_kron_order(n)
    zero = a.ring.zero
    size = 1 << n

    def row(r):
        out = [zero] * size
        diag = zero
        for k in range(n):
            bit = (r >> k) & 1
            diag = diag + a[bit, bit]
            out[r ^ (1 << k)] = a[bit, 1 - bit]
        out[r] = diag
        return out

    return Matrix(a.ring, (row(r) for r in range(size)))


# ---------------------------------------------------------------------------
# derived identities
# ---------------------------------------------------------------------------

def ladder_factors(n: int):
    """(raising, lowering) step factors on the degree-n monomial chain."""
    raising = [n - q for q in range(n)]        # e_q -> (n-q) e_{q+1}
    lowering = [q for q in range(1, n + 1)]    # e_q -> q e_{q-1}
    return raising, lowering


def lrn_relations_check(n: int) -> CheckReport:
    """Commutators and ladder factors of L = x dy, R = y dx, N = x dx - y dy.

    With the plain bracket [X, Y] = XY - YX the realized relations are
    [L, R] = N, [N, L] = 2L, [N, R] = -2R; the halved bracket instead
    satisfies [N, L] = L, [N, R] = -R but scales [L, R] to N/2.  Both
    facts are asserted, so the report records which normalization carries
    which relation.
    """
    if n < 1:
        raise ValueError("ladder relations need order >= 1")
    lm = sym_algebra_power(MAT_L, n)
    rm = sym_algebra_power(MAT_R, n)
    nm = sym_algebra_power(MAT_G, n)

    def bracket(x, y):
        return x @ y - y @ x

    raising, lowering = ladder_factors(n)
    return check_cells([
        ("[L,R] = N (plain bracket)", bracket(lm, rm).cells(nm)),
        ("[N,L] = 2L (plain bracket)", bracket(nm, lm).cells(lm.scale(2))),
        ("[N,R] = -2R (plain bracket)", bracket(nm, rm).cells(rm.scale(-2))),
        ("raising ladder factor",
         (((q + 1, q), rm[q + 1, q], raising[q]) for q in range(n))),
        ("lowering ladder factor",
         (((q, q + 1), lm[q, q + 1], lowering[q]) for q in range(n))),
        ("N eigenvalues = n-2q", nm.cells(lambda_matrix(n))),
    ], n=n)


def symmetry_check(n: int) -> CheckReport:
    """F^group K = K G^group and G^group K = K F^group (the two reversals)."""
    if n < 1:
        raise ValueError("symmetry check needs order >= 1")
    k = k_reference(n)
    f_pow = sym_group_power(MAT_F, n)
    g_pow = sym_group_power(MAT_G, n)
    return check_cells([
        ("F^on K = K G^on", (f_pow @ k).cells(k @ g_pow)),
        ("G^on K = K F^on", (g_pow @ k).cells(k @ f_pow)),
    ], n=n)


def master_from_tensor_check(n: int) -> CheckReport:
    """Derive the master equation from FH = HG by symmetric powers.

    F^algebra H^group = H^group G^algebra must reproduce M K = K Lambda.
    """
    if n < 1:
        raise ValueError("master derivation needs order >= 1")
    f_alg = sym_algebra_power(MAT_F, n)
    g_alg = sym_algebra_power(MAT_G, n)
    h_grp = sym_group_power(MAT_H, n)
    return check_cells([
        ("F^alg H^grp = H^grp G^alg", (f_alg @ h_grp).cells(h_grp @ g_alg)),
        ("F^alg = Kac matrix", f_alg.cells(kac_matrix(n))),
        ("G^alg = Lambda", g_alg.cells(lambda_matrix(n))),
        ("H^grp = K", h_grp.cells(k_reference(n))),
    ], n=n)


def skew_factorization_check(n: int) -> CheckReport:
    """Symmetric powers of H U = U D1 give K B = B D columnwise.

    U = [[1,1],[0,1]] powers to the binomial matrix and D1 = [[0,2],[1,0]]
    to the skew power matrix, so the 2x2 seed identity exponentiates to the
    full skew-diagonalization.
    """
    from .spectral import binomial_matrix, skew_power_matrix

    u = Matrix.from_rows([[1, 1], [0, 1]])
    d1 = Matrix.from_rows([[0, 2], [1, 0]])
    b_pow = sym_group_power(u, n)
    d_pow = sym_group_power(d1, n)
    return check_cells([
        ("2x2 seed identity H U = U D1", (MAT_H @ u).cells(u @ d1)),
        ("U^on = B", b_pow.cells(binomial_matrix(n))),
        ("D1^on = D", d_pow.cells(skew_power_matrix(n))),
        ("K B = B D from tensor powers",
         (k_reference(n) @ b_pow).cells(b_pow @ d_pow)),
    ], n=n)


def kron_remark_check(n: int) -> CheckReport:
    """The unsymmetrized master equations on 2^n dimensions.

    G^box H^kron = H^kron F^box and F^box H^kron = H^kron G^box, both
    inherited from GH = HF and FH = HG.
    """
    h_kron = kron_power(MAT_H, n)
    f_box = box_power(MAT_F, n)
    g_box = box_power(MAT_G, n)
    return check_cells([
        ("G^box H^kron = H^kron F^box",
         (g_box @ h_kron).cells(h_kron @ f_box)),
        ("F^box H^kron = H^kron G^box",
         (f_box @ h_kron).cells(h_kron @ g_box)),
    ], n=n)
