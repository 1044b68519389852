"""Hamilton and split quaternions with exact rational coefficients.

Both algebras share the scalar unit 1 and the imaginary unit i; Hamilton
quaternions add j, k with i^2 = j^2 = k^2 = -1, while split quaternions add
F, G with F^2 = G^2 = +1:

    Hamilton:  ij = k,   jk = i,   ki = j       (anticommuting)
    Split:     iF = G,   FG = -i,  Gi = F       (anticommuting)

Conjugation negates the pure part; the norm q*conj(q) is positive definite
for Hamilton and has Minkowski signature (+,+,-,-) for split, so nonzero
null split quaternions exist and are the only non-invertible ones.

The 2x2 matrix representations (complex entries for Hamilton, real for
split) are faithful; the split picture sends F+G to the Hadamard matrix,
which is how this algebra meets the Krawtchouk story: FH = HG, both sides
equal 1 - i.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .matrix import Matrix
from .rings import GAUSS, Gaussian, QQ

HAMILTON = "Hamilton"
SPLIT = "Split"

# products of the pure units: table[(u, v)] = (coefficient, resulting unit)
# units are indexed 1..3 = (i, j, k) or (i, F, G); 0 is the scalar slot
_TABLES = {
    HAMILTON: {
        (1, 1): (-1, 0), (2, 2): (-1, 0), (3, 3): (-1, 0),
        (1, 2): (1, 3), (2, 1): (-1, 3),
        (2, 3): (1, 1), (3, 2): (-1, 1),
        (3, 1): (1, 2), (1, 3): (-1, 2),
    },
    SPLIT: {
        (1, 1): (-1, 0), (2, 2): (1, 0), (3, 3): (1, 0),
        (1, 2): (1, 3), (2, 1): (-1, 3),   # iF = G
        (2, 3): (-1, 1), (3, 2): (1, 1),   # FG = -i
        (3, 1): (1, 2), (1, 3): (-1, 2),   # Gi = F
    },
}


@dataclass(frozen=True)
class Quaternion:
    """a + b*i + c*(j or F) + d*(k or G), coefficients exact rationals."""

    kind: str
    a: Fraction
    b: Fraction
    c: Fraction
    d: Fraction

    def __init__(self, kind, a=0, b=0, c=0, d=0):
        if kind not in (HAMILTON, SPLIT):
            raise ValueError(f"unknown quaternion kind {kind!r}")
        for name, value in zip("abcd", (a, b, c, d)):
            object.__setattr__(self, name, Fraction(value))
        object.__setattr__(self, "kind", kind)

    # -- ring structure ------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, Quaternion):
            if other.kind != self.kind:
                raise ValueError("mixed Hamilton/split arithmetic")
            return other
        if isinstance(other, (int, Fraction)):
            return Quaternion(self.kind, other)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return Quaternion(self.kind, self.a + other.a, self.b + other.b,
                          self.c + other.c, self.d + other.d)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return Quaternion(self.kind, self.a - other.a, self.b - other.b,
                          self.c - other.c, self.d - other.d)

    def __rsub__(self, other):
        return self._coerce(other).__sub__(self)

    def __neg__(self):
        return Quaternion(self.kind, -self.a, -self.b, -self.c, -self.d)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        table = _TABLES[self.kind]
        coeffs = [Fraction(0)] * 4
        mine = (self.a, self.b, self.c, self.d)
        theirs = (other.a, other.b, other.c, other.d)
        for u in range(4):
            if not mine[u]:
                continue
            for v in range(4):
                if not theirs[v]:
                    continue
                prod = mine[u] * theirs[v]
                if u == 0:
                    coeffs[v] += prod
                elif v == 0:
                    coeffs[u] += prod
                else:
                    sign, unit = table[(u, v)]
                    coeffs[unit] += sign * prod
        return Quaternion(self.kind, *coeffs)

    def __rmul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other.__mul__(self)

    # -- involutions and norms -------------------------------------------

    def conj(self) -> "Quaternion":
        return Quaternion(self.kind, self.a, -self.b, -self.c, -self.d)

    def norm2(self) -> Fraction:
        """q * conj(q); a^2+b^2+c^2+d^2 (Hamilton) or a^2+b^2-c^2-d^2 (split)."""
        if self.kind == HAMILTON:
            return self.a ** 2 + self.b ** 2 + self.c ** 2 + self.d ** 2
        return self.a ** 2 + self.b ** 2 - self.c ** 2 - self.d ** 2

    def inverse(self) -> "Quaternion":
        n2 = self.norm2()
        if n2 == 0:
            raise ZeroDivisionError("null split quaternion has no inverse")
        conj = self.conj()
        return Quaternion(self.kind, conj.a / n2, conj.b / n2,
                          conj.c / n2, conj.d / n2)

    def pure(self) -> "Quaternion":
        return Quaternion(self.kind, 0, self.b, self.c, self.d)

    def is_pure(self) -> bool:
        return self.a == 0

    def __str__(self):
        units = ("", "i", "jF"[self.kind == SPLIT], "kG"[self.kind == SPLIT])
        parts = []
        for coeff, unit in zip((self.a, self.b, self.c, self.d), units):
            if coeff == 0:
                continue
            body = str(abs(coeff)) if not unit or abs(coeff) != 1 else ""
            text = f"{body}{unit}" or "0"
            parts.append(("-" if coeff < 0 else "+", text))
        if not parts:
            return "0"
        sign0, text0 = parts[0]
        out = ("-" if sign0 == "-" else "") + text0
        for sign, text in parts[1:]:
            out += sign + text
        return out


def split(a=0, b=0, c=0, d=0) -> Quaternion:
    return Quaternion(SPLIT, a, b, c, d)


def hamilton(a=0, b=0, c=0, d=0) -> Quaternion:
    return Quaternion(HAMILTON, a, b, c, d)


# the named generators
I_H, J, K_UNIT = hamilton(0, 1), hamilton(0, 0, 1), hamilton(0, 0, 0, 1)
I_S, F, G = split(0, 1), split(0, 0, 1), split(0, 0, 0, 1)
H = F + G  # the 2x2 Hadamard matrix as a split quaternion


@dataclass(frozen=True)
class MinkowskiVector:
    """Pure split quaternion t*i + x*F + y*G viewed as a vector in R^{1,2}."""

    t: Fraction
    x: Fraction
    y: Fraction

    def as_quaternion(self) -> Quaternion:
        return split(0, self.t, self.x, self.y)

    def norm2(self) -> Fraction:
        return Fraction(self.t) ** 2 - Fraction(self.x) ** 2 - Fraction(self.y) ** 2

    @staticmethod
    def of(q: Quaternion) -> "MinkowskiVector":
        if q.kind != SPLIT or not q.is_pure():
            raise ValueError("expected a pure split quaternion")
        return MinkowskiVector(q.b, q.c, q.d)


def to_matrix2(q: Quaternion) -> Matrix:
    """Faithful 2x2 representation: Gaussian entries (Hamilton), rational (split)."""
    if q.kind == HAMILTON:
        # 1 -> I, i -> [[0,1],[-1,0]], j -> [[0,i],[i,0]], k -> [[i,0],[0,-i]]
        return Matrix(GAUSS, [
            [Gaussian(q.a, q.d), Gaussian(q.b, q.c)],
            [Gaussian(-q.b, q.c), Gaussian(q.a, -q.d)],
        ])
    # 1 -> I, i -> [[0,1],[-1,0]], F -> [[0,1],[1,0]], G -> [[1,0],[0,-1]]
    return Matrix(QQ, [
        [q.a + q.d, q.b + q.c],
        [-q.b + q.c, q.a - q.d],
    ])


def adjoint_act(g: Quaternion, v: Quaternion) -> Quaternion:
    """g v g^{-1}: rotation (Hamilton) or Lorentz map (split) of the pure part."""
    if g.kind != v.kind:
        raise ValueError("mixed Hamilton/split arithmetic")
    if not v.is_pure():
        raise ValueError("adjoint action expects a pure quaternion")
    return g * v * g.inverse()


def reflect(q: Quaternion, v: Quaternion) -> Quaternion:
    """-q v q^{-1}: reflection through the plane perpendicular to pure q."""
    if not q.is_pure():
        raise ValueError("reflection axis must be a pure quaternion")
    return -adjoint_act(q, v)


def lie_bracket(u: Quaternion, v: Quaternion) -> Quaternion:
    """Half-commutator (uv - vu)/2; on pure units this is the vector product."""
    if u.kind != v.kind:
        raise ValueError("mixed Hamilton/split arithmetic")
    diff = u * v - v * u
    return Quaternion(diff.kind, diff.a / 2, diff.b / 2, diff.c / 2, diff.d / 2)


def isotropic_basis():
    """Light-like pair R = (F+i)/2, L = (F-i)/2 together with N = i."""
    half = Fraction(1, 2)
    r = split(0, half, half, 0)
    l = split(0, -half, half, 0)
    return r, l, I_S


def jhhk_check():
    """FH = HG with both sides equal to 1 - i, plus the 2x2 matrix image.

    The matrix image of FH = HG is the order-1 master equation: the Kac
    matrix times Hadamard equals Hadamard times diag(1, -1).
    """
    fh = F * H
    hg = H * G
    target = split(1, -1)
    if fh != hg or fh != target:
        return False, fh, hg
    lhs = to_matrix2(F) @ to_matrix2(H)
    rhs = to_matrix2(H) @ to_matrix2(G)
    return lhs == rhs == to_matrix2(target), fh, hg


def hadamard_conjugation():
    """Images of F, G, i, R, L, N under v -> H v H^{-1}, exactly.

    Computed facts: F <-> G swap, i -> -i (hence N -> -N), and the
    light-like pair of the (F, i) plane lands in the (G, i) plane:
    H R H^{-1} = (G-i)/2 and H L H^{-1} = (G+i)/2.  No linear action can
    instead send L -> -R, R -> -L while N -> -N, because R - L = N pins
    Ad(R) - Ad(L) = Ad(N).
    """
    r, l, n = isotropic_basis()
    return {name: adjoint_act(H, v)
            for name, v in (("F", F), ("G", G), ("i", I_S),
                            ("R", r), ("L", l), ("N", n))}
