"""Ring-valued and complex-phase Krawtchouk matrices.

Column q of the generalized matrix holds the coefficients of
(1 + alpha t)^(n-q) (1 + beta t)^q over any commutative ring, so the
matrix is the n-th symmetric power of [[1, 1], [alpha, beta]].  The
classical matrix is the specialization (alpha, beta) = (1, -1), the power
of the Hadamard matrix.  Working symbolically (alpha, beta as polynomial
generators) proves the cross and trace identities for every
specialization at once.

Each ring takes one route.  Over the integers and the complex floats the
matrix is :func:`krawtchouk.sympow.sym_group_power` of [[1, 1], [alpha,
beta]], packed products for the one and a convolution of precomputed
powers for the other.  Over the other exact rings (rationals, Gaussian,
Q[sqrt 2] and the polynomials) column q+1 is column q divided by
1 + alpha t and multiplied by 1 + beta t, O(n) ring operations a column
and O(n^2) in all.  The division is exact in any commutative ring, since
the divisor's constant term is 1, but in floats it cancels: it would put
a generic K(phi) at n = 16 far outside the 1e-9 C(n, p) bound below, so
complex floats never divide.

The phase family K(phi) fixes alpha = 1 and beta = e^(i phi).  Phases 0,
pi/2 and pi land in the exact Gaussian ring (beta = 1, i, -1); anything else
falls back to complex floats.  Those compare exactly, as every ring does, so
a float K(phi) equals its direct binomial sum only up to rounding; it is
checked against that sum entrywise within 1e-9 C(n, p).  Plotting a column of
K(phi) in the complex plane and joining consecutive entries draws the
"snake" figures; :func:`snake_csv` and :func:`snake_svg` emit those paths.
"""

from __future__ import annotations

import cmath
import math
from itertools import accumulate, repeat
from math import comb
from operator import add, mul, ne

from .core import k_reference
from .matrix import CheckReport, Matrix, check_cells
from .rings import ALPHA, BETA, CC, GAUSS, Gaussian, POLY2, ZZ, ring_of
from .sympow import sym_group_power


def k_general(n: int, alpha, beta) -> Matrix:
    """Generalized Krawtchouk matrix over the ring of (alpha, beta).

    The n-th symmetric power of [[1, 1], [alpha, beta]]: its column q is
    (1 + alpha t)^(n-q) (1 + beta t)^q.  Integers and complex floats take
    ``sym_group_power``; every other ring starts from column 0,
    C(n, p) alpha^p, and steps with :func:`_next_column`.
    """
    if n < 0:
        raise ValueError("order must be non-negative")
    ring = ring_of(alpha)
    if ring != ring_of(beta):
        raise ValueError("alpha and beta must come from the same ring")
    one = ring.one
    if ring in (ZZ, CC):
        return sym_group_power(Matrix(ring, [[one, one], [alpha, beta]]), n)
    powers = [one]
    for _ in range(n):
        powers.append(powers[-1] * alpha)
    cols = [[comb(n, p) * power for p, power in enumerate(powers)]]
    for _ in range(n):
        cols.append(_next_column(cols[-1], alpha, beta))
    return Matrix(ring, zip(*cols))


def _next_column(column: list, alpha, beta) -> list:
    """(1 + beta t)/(1 + alpha t) times a column with 1 + alpha t in it.

    The ascending synthetic division c_i = a_i - alpha c_(i-1) leaves the
    quotient c_0..c_(n-1); its remainder vanishes because the column holds
    the factor, and a wrong column fails the cross, trace and phase checks.
    Multiplying by 1 + beta t then gives d_i = c_i + beta c_(i-1).
    """
    quotient = list(accumulate(column[:-1], lambda prev, a: a - alpha * prev))
    return [quotient[0],
            *(c + beta * prev for prev, c in zip(quotient, quotient[1:])),
            beta * quotient[-1]]


def k_general_symbolic(n: int) -> Matrix:
    """K(alpha, beta) over the bivariate integer polynomial ring."""
    return k_general(n, ALPHA, BETA)


def specialize(mat: Matrix, alpha, beta) -> Matrix:
    """Evaluate a symbolic K(alpha, beta) at concrete ring values."""
    if mat.ring != POLY2:
        raise ValueError("specialize expects a matrix over the polynomial ring")
    ring = ring_of(alpha)
    one = ring.one
    return mat.map(lambda p: p.evaluate(alpha, beta) * one, ring)


def padded_entries(mats: dict, zero):
    """E(m, p, q): entry (p, q) of the order-m matrix ``mats[m]``, zero
    outside the index range 0..m."""
    def entry(m, p, q):
        if 0 <= p <= m and 0 <= q <= m:
            return mats[m][p, q]
        return zero
    return entry


def cross_cells(entry, n: int, alpha, beta) -> list:
    """The four cross identities at order n as named cells over (p, q).

    ``entry`` is E(m, p, q) of :func:`padded_entries` for m = n-1, n, n+1.
    """
    diff = alpha - beta
    idx = [(p, q) for p in range(n + 1) for q in range(n + 1)]
    inner = [(p, q) for p, q in idx if q < n]
    return [
        ("cross identity (i)",
         (((p, q), alpha * entry(n, p, q) + entry(n, p + 1, q),
           entry(n + 1, p + 1, q)) for p, q in idx)),
        ("cross identity (ii)",
         (((p, q), beta * entry(n, p, q) + entry(n, p + 1, q),
           entry(n + 1, p + 1, q + 1)) for p, q in idx)),
        ("cross identity (iii)",
         (((p, q), entry(n, p, q) - entry(n, p, q + 1),
           diff * entry(n - 1, p - 1, q)) for p, q in inner)),
        ("cross identity (iv)",
         (((p, q), alpha * entry(n, p, q + 1) - beta * entry(n, p, q),
           diff * entry(n - 1, p, q)) for p, q in inner)),
    ]


def trace_cells(k: Matrix, alpha, beta):
    """beta*x + z = alpha*y + t for the 2x2 block [[x,y],[z,t]] at (p, q)."""
    n = k.rows - 1
    return (((p, q), beta * k[p, q] + k[p + 1, q],
             alpha * k[p, q + 1] + k[p + 1, q + 1])
            for p in range(n) for q in range(n))


def general_cross_check(n: int, built: dict | None = None) -> CheckReport:
    """The four cross identities of the symbolic (alpha, beta) family.

    With E(n,p,q) denoting the order-n entry (zero outside the index range):

      (i)   alpha*E(n,p,q) + E(n,p+1,q)   = E(n+1,p+1,q)
      (ii)  beta*E(n,p,q)  + E(n,p+1,q)   = E(n+1,p+1,q+1)
      (iii) E(n,p,q) - E(n,p,q+1)         = (alpha-beta)*E(n-1,p-1,q)
      (iv)  alpha*E(n,p,q+1) - beta*E(n,p,q) = (alpha-beta)*E(n-1,p,q)

    ``built`` maps orders to symbolic matrices already built; the orders
    n-1, n and n+1 it lacks are built and added to it, so a sweep over
    consecutive orders that passes one dict builds each order once.
    """
    if n < 1:
        raise ValueError("cross identities need order >= 1")
    built = {} if built is None else built
    for m in (n - 1, n, n + 1):
        if m not in built:
            built[m] = k_general_symbolic(m)
    entry = padded_entries(built, POLY2.zero)
    return check_cells(cross_cells(entry, n, ALPHA, BETA), n=n)


def trace_identity_check(n: int, alpha=ALPHA, beta=BETA) -> CheckReport:
    """Every adjacent 2x2 block [[x,y],[z,t]] satisfies beta*x + z = alpha*y + t.

    Equivalently Tr([[beta, 1], [-alpha, -1]] @ block) = 0.  At the classical
    point (1,-1) this says the lower-left entry is the sum of the other
    three.

    Adjacent rows are compared whole, each pair in one pass; only when a
    pair differs are the blocks scanned through :func:`trace_cells`, so a
    failure names its first cell.  Both compare with ``!=``.
    """
    if n < 1:
        raise ValueError("trace identity needs order >= 1")
    k = k_general(n, alpha, beta)
    for upper, lower in zip(k.data, k.data[1:]):
        lhs = map(add, map(mul, repeat(beta), upper[:-1]), lower)
        rhs = map(add, map(mul, repeat(alpha), upper[1:]), lower[1:])
        if any(map(ne, lhs, rhs)):
            cells = trace_cells(k, alpha, beta)
            return check_cells([("trace identity", cells)], n=n)
    return CheckReport(True, n=n)


# ---------------------------------------------------------------------------
# complex phases
# ---------------------------------------------------------------------------

_UNITS = {1: Gaussian(1), 1j: Gaussian(0, 1), -1: Gaussian(-1),
          -1j: Gaussian(0, -1)}
_PHASE_EPS = 1e-12


def phase_beta(phi: float):
    """e^(i phi) as an exact Gaussian unit when phi is a multiple of pi/2.

    The snap reads the distance from e^(i phi) to each unit, which
    ``cmath.exp`` computes accurately at every finite phi.  The quotient
    phi / (pi/2) would not do: above 2^53 or so it has no fractional bits
    left, and every huge angle would look like a quarter turn.  A float
    k pi/2 carries the rounding of pi and of the product, so it snaps for
    every |k| up to 5,230 but not for all beyond; ``cli.parse_phi`` drops
    whole turns while the factor is exact, so 'N pi' snaps at any N.
    """
    beta = cmath.exp(1j * phi)
    for z, unit in _UNITS.items():
        if abs(beta - z) < _PHASE_EPS:
            return unit
    return beta


def k_phase(n: int, phi: float) -> Matrix:
    """Phase-generalized matrix: alpha = 1, beta = e^(i phi).

    Exact over Gaussian numbers for phi in {0, pi/2, pi, 3pi/2}; complex
    floats otherwise.  phi = pi reproduces the classical matrix.
    """
    beta = phase_beta(phi)
    if isinstance(beta, Gaussian):
        return k_general(n, Gaussian(1), beta)
    return k_general(n, 1 + 0j, beta)


def phase_coherence_check(n: int) -> CheckReport:
    """k_phase(n, pi) equals the classical matrix with zero imaginary parts."""
    k = k_phase(n, math.pi)
    ref = k_reference(n).map(Gaussian, GAUSS)
    return check_cells([("phase pi = classical", k.cells(ref))], n=n)


def snake_coordinates(k: Matrix, q: int) -> list:
    """Column q of K(phi) as (re, im) points, consecutive pairs joined.

    ``k`` is a matrix that :func:`k_phase` built.  Column 0 is permitted
    but degenerate (it is the all-real binomial column); figures normally
    use q = 1..n.
    """
    n = k.rows - 1
    if not 0 <= q <= n:
        raise ValueError(f"column {q} out of range for order {n}")
    points = []
    for z in k.col(q):
        if isinstance(z, Gaussian):
            points.append((z.re, z.im))
        else:
            points.append((z.real, z.imag))
    return points


def snake_csv(k: Matrix, q: int) -> str:
    """One `re,im` line per entry of column q of K(phi)."""
    return "\n".join(f"{float(re)!r},{float(im)!r}"
                     for re, im in snake_coordinates(k, q)) + "\n"


def snake_svg(k: Matrix) -> str:
    """Standalone 400x400 SVG with one polyline per column 1..n of K(phi)."""
    n = k.rows - 1
    if n < 1:
        raise ValueError("snake figures need order >= 1")
    paths = [snake_coordinates(k, q) for q in range(1, n + 1)]
    xs = [float(x) for pts in paths for x, _ in pts]
    ys = [float(y) for pts in paths for _, y in pts]
    lo_x, hi_x = min(xs), max(xs)
    lo_y, hi_y = min(ys), max(ys)
    pad = 0.05 * max(hi_x - lo_x, hi_y - lo_y, 1.0)
    view = (lo_x - pad, lo_y - pad, (hi_x - lo_x) + 2 * pad,
            (hi_y - lo_y) + 2 * pad)
    stroke = max(view[2], view[3]) / 200.0
    palette = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e",
               "#8c564b", "#17becf"]
    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="400" '
        f'height="400" viewBox="{view[0]:.4f} {view[1]:.4f} '
        f'{view[2]:.4f} {view[3]:.4f}">',
        # flip y so the positive imaginary axis points up
        f'<g transform="scale(1,-1) translate(0,{-(2 * lo_y + (hi_y - lo_y)):.4f})">',
    ]
    for idx, path in enumerate(paths):
        pts = " ".join(f"{float(x):.6f},{float(y):.6f}" for x, y in path)
        color = palette[idx % len(palette)]
        lines.append(f'<polyline fill="none" stroke="{color}" '
                     f'stroke-width="{stroke:.4f}" points="{pts}"/>')
    lines.append("</g>")
    lines.append("</svg>")
    return "\n".join(lines)
