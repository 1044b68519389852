"""Ring-valued and complex-phase Krawtchouk matrices.

Column q of the generalized matrix holds the coefficients of
(1 + alpha t)^(n-q) (1 + beta t)^q over any commutative ring; the classical
matrix is the specialization (alpha, beta) = (1, -1).  Working symbolically
(alpha, beta as polynomial generators) proves the cross and trace identities
for every specialization at once.

The phase family K(phi) fixes alpha = 1 and beta = e^(i phi).  Phases 0,
pi/2 and pi land in the exact Gaussian ring (beta = 1, i, -1); anything else
falls back to tolerance-compared complex floats.  Plotting a column of
K(phi) in the complex plane and joining consecutive entries draws the
"snake" figures; :func:`snake_csv` and :func:`snake_svg` emit those paths.
"""

from __future__ import annotations

import cmath
import math

from .core import k_binsum
from .matrix import CheckReport, Matrix, check_cells
from .rings import ALPHA, BETA, GAUSS, Gaussian, POLY2, ring_of


def k_general(n: int, alpha, beta) -> Matrix:
    """Generalized Krawtchouk matrix over the ring of (alpha, beta)."""
    if n < 0:
        raise ValueError("order must be non-negative")
    ring = ring_of(alpha)
    if ring != ring_of(beta):
        raise ValueError("alpha and beta must come from the same ring")
    one = ring.one
    cols = []
    for q in range(n + 1):
        coeffs = [one]
        for _ in range(n - q):
            coeffs = _poly_mul_linear(coeffs, alpha, ring.zero)
        for _ in range(q):
            coeffs = _poly_mul_linear(coeffs, beta, ring.zero)
        cols.append(coeffs)
    rows = [[cols[q][p] for q in range(n + 1)] for p in range(n + 1)]
    return Matrix(ring, rows)


def _poly_mul_linear(coeffs, root, zero):
    """Multiply a coefficient list by (1 + root*t)."""
    out = [zero] * (len(coeffs) + 1)
    for i, c in enumerate(coeffs):
        out[i] = out[i] + c
        out[i + 1] = out[i + 1] + c * root
    return out


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


def general_cross_check(n: int, alpha=ALPHA, beta=BETA) -> CheckReport:
    """The four cross identities of the (alpha, beta) family.

    With E(n,p,q) denoting the order-n entry (zero outside the index range):

      (i)   alpha*E(n,p,q) + E(n,p+1,q)   = E(n+1,p+1,q)
      (ii)  beta*E(n,p,q)  + E(n,p+1,q)   = E(n+1,p+1,q+1)
      (iii) E(n,p,q) - E(n,p,q+1)         = (alpha-beta)*E(n-1,p-1,q)
      (iv)  alpha*E(n,p,q+1) - beta*E(n,p,q) = (alpha-beta)*E(n-1,p,q)
    """
    if n < 1:
        raise ValueError("cross identities need order >= 1")
    ring = ring_of(alpha)
    entry = padded_entries({m: k_general(m, alpha, beta)
                            for m in (n - 1, n, n + 1)}, ring.zero)
    return check_cells(cross_cells(entry, n, alpha, beta), n=n, ring=ring)


def trace_identity_check(n: int, alpha=ALPHA, beta=BETA) -> CheckReport:
    """Every adjacent 2x2 block [[x,y],[z,t]] satisfies beta*x + z = alpha*y + t.

    Equivalently Tr([[beta, 1], [-alpha, -1]] @ block) = 0.  At the classical
    point (1,-1) this says the lower-left entry is the sum of the other
    three.
    """
    if n < 1:
        raise ValueError("trace identity needs order >= 1")
    cells = trace_cells(k_general(n, alpha, beta), alpha, beta)
    return check_cells([("trace identity", cells)], n=n, ring=ring_of(alpha))


# ---------------------------------------------------------------------------
# complex phases
# ---------------------------------------------------------------------------

_EXACT_PHASES = [(0, Gaussian(1)), (1, Gaussian(0, 1)),
                 (2, Gaussian(-1)), (3, Gaussian(0, -1))]
_PHASE_EPS = 1e-12


def phase_beta(phi: float):
    """e^(i phi) as an exact Gaussian unit when phi is a multiple of pi/2."""
    quarter_turns = math.fmod(phi / (math.pi / 2), 4.0)
    if quarter_turns < 0:
        quarter_turns += 4.0
    for k, val in _EXACT_PHASES:
        if abs(quarter_turns - k) < _PHASE_EPS or abs(quarter_turns - k - 4) < _PHASE_EPS:
            return val
    return cmath.exp(1j * phi)


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
    ref = k_binsum(n).mat.map(Gaussian, GAUSS)
    return CheckReport.of_matrices(k, ref, n=n, note="phase pi = classical")


def snake_coordinates(n: int, phi: float, q: int) -> list:
    """Column q of K(phi) as (re, im) points, consecutive pairs joined.

    Column 0 is permitted but degenerate (it is the all-real binomial
    column); figures normally use q = 1..n.
    """
    if not 0 <= q <= n:
        raise ValueError(f"column {q} out of range for order {n}")
    k = k_phase(n, phi)
    points = []
    for p in range(n + 1):
        z = k[p, q]
        if isinstance(z, Gaussian):
            points.append((z.re, z.im))
        else:
            points.append((z.real, z.imag))
    return points


def snake_csv(n: int, phi: float, q: int) -> str:
    """One `re,im` line per entry of column q."""
    return "\n".join(f"{float(re)!r},{float(im)!r}"
                     for re, im in snake_coordinates(n, phi, q)) + "\n"


def snake_svg(n: int, phi: float, columns=None, size: int = 400) -> str:
    """Standalone SVG with one polyline per requested column (default 1..n)."""
    if columns is None:
        columns = range(1, n + 1)
    columns = list(columns)
    paths = {q: snake_coordinates(n, phi, q) for q in columns}
    xs = [float(x) for pts in paths.values() for x, _ in pts]
    ys = [float(y) for pts in paths.values() for _, y in pts]
    lo_x, hi_x = min(xs), max(xs)
    lo_y, hi_y = min(ys), max(ys)
    pad = 0.05 * max(hi_x - lo_x, hi_y - lo_y, 1.0)
    view = (lo_x - pad, lo_y - pad, (hi_x - lo_x) + 2 * pad,
            (hi_y - lo_y) + 2 * pad)
    stroke = max(view[2], view[3]) / 200.0
    palette = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e",
               "#8c564b", "#17becf"]
    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" '
        f'height="{size}" viewBox="{view[0]:.4f} {view[1]:.4f} '
        f'{view[2]:.4f} {view[3]:.4f}">',
        # flip y so the positive imaginary axis points up
        f'<g transform="scale(1,-1) translate(0,{-(2 * lo_y + (hi_y - lo_y)):.4f})">',
    ]
    for idx, q in enumerate(columns):
        pts = " ".join(f"{float(x):.6f},{float(y):.6f}" for x, y in paths[q])
        color = palette[idx % len(palette)]
        lines.append(f'<polyline fill="none" stroke="{color}" '
                     f'stroke-width="{stroke:.4f}" points="{pts}"/>')
    lines.append("</g>")
    lines.append("</svg>")
    return "\n".join(lines)
