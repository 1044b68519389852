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

:class:`Quaternion` stores its coefficients in the lowest-terms format of
:class:`krawtchouk.rings._Lowest`, which also gives it coercion,
subtraction and its text form (``-F+5/3G``); this module keeps only the
kind and the unrolled sum, product, conjugation, norm and inverse.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from itertools import chain

from .matrix import CheckReport, Matrix, check_cells
from .rings import GAUSS, QQ, Gaussian, _Lowest

HAMILTON = "Hamilton"
SPLIT = "Split"
_UNITS = {HAMILTON: ("", "i", "j", "k"), SPLIT: ("", "i", "F", "G")}


class Quaternion(_Lowest, components=("a", "b", "c", "d")):
    """a + b*i + c*(j or F) + d*(k or G), coefficients exact rationals.

    ``_n = (a, b, c, d, den)`` in the lowest terms of
    :class:`krawtchouk.rings._Lowest`; ``a`` .. ``d`` read as Fractions.
    """

    __slots__ = ("_kind",)

    def __init__(self, kind, a=0, b=0, c=0, d=0):
        if kind not in (HAMILTON, SPLIT):
            raise ValueError(f"unknown quaternion kind {kind!r}")
        self._kind = kind
        self._store((a, b, c, d))

    kind = property(lambda self: self._kind)

    _units = property(lambda self: _UNITS[self._kind])

    # -- ring structure ------------------------------------------------

    def _of(self, parts: tuple) -> "Quaternion":
        """The quaternion of this kind with parts (a, b, c, d, den), den > 0.

        An instance method, unlike the base's, since the kind comes from
        ``self``; it builds the value directly rather than through
        ``super()``, which would cost every sum and product another call.
        """
        q = object.__new__(Quaternion)
        q._kind = self._kind
        q._n = self._lowest(parts)
        return q

    def _coerce(self, other):
        if isinstance(other, Quaternion):
            if other._kind != self._kind:
                raise ValueError("mixed Hamilton/split arithmetic")
            return other
        return super()._coerce(other)

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a1, b1, c1, d1, den1 = self._n
        a2, b2, c2, d2, den2 = other._n
        if den1 == den2:
            return self._of((a1 + a2, b1 + b2, c1 + c2, d1 + d2, den1))
        return self._of((a1 * den2 + a2 * den1, b1 * den2 + b2 * den1,
                         c1 * den2 + c2 * den1, d1 * den2 + d2 * den1,
                         den1 * den2))

    __radd__ = __add__

    def __neg__(self):
        a, b, c, d, den = self._n
        return self._of((-a, -b, -c, -d, den))

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a1, b1, c1, d1, den1 = self._n
        a2, b2, c2, d2, den2 = other._n
        s = self._square()
        return self._of((
            a1 * a2 - b1 * b2 + s * (c1 * c2 + d1 * d2),
            a1 * b2 + b1 * a2 - s * (c1 * d2 - d1 * c2),
            a1 * c2 + c1 * a2 + d1 * b2 - b1 * d2,
            a1 * d2 + d1 * a2 + b1 * c2 - c1 * b2,
            den1 * den2))

    # a left operand that is not a quaternion is a rational, which commutes
    __rmul__ = __mul__

    def __eq__(self, other):
        if not isinstance(other, Quaternion):
            return NotImplemented
        return self._kind == other._kind and self._n == other._n

    def __hash__(self):
        return hash((self._kind, self._n))

    # -- involutions and norms -------------------------------------------

    def _square(self) -> int:
        """j^2 = k^2 = -1 (Hamilton) or F^2 = G^2 = +1 (split)."""
        return 1 if self._kind == SPLIT else -1

    def _norm_numerator(self) -> int:
        a, b, c, d, _ = self._n
        return a * a + b * b - self._square() * (c * c + d * d)

    def conj(self) -> "Quaternion":
        a, b, c, d, den = self._n
        return self._of((a, -b, -c, -d, den))

    def norm2(self) -> Fraction:
        """q * conj(q); a^2+b^2+c^2+d^2 (Hamilton) or a^2+b^2-c^2-d^2 (split)."""
        den = self._n[4]
        return Fraction(self._norm_numerator(), den * den)

    def inverse(self) -> "Quaternion":
        n2 = self._norm_numerator()
        if n2 == 0:
            raise ZeroDivisionError("null split quaternion has no inverse")
        # conj(q) / (n2 / den^2) = (a, -b, -c, -d) den / n2
        a, b, c, d, den = self._n
        if n2 < 0:
            n2, den = -n2, -den
        return self._of((a * den, -b * den, -c * den, -d * den, n2))

    def is_pure(self) -> bool:
        return self._n[0] == 0

    def __repr__(self):
        return (f"Quaternion(kind={self._kind!r}, a={self.a!r}, b={self.b!r}, "
                f"c={self.c!r}, d={self.d!r})")


def split(a=0, b=0, c=0, d=0) -> Quaternion:
    return Quaternion(SPLIT, a, b, c, d)


def hamilton(a=0, b=0, c=0, d=0) -> Quaternion:
    return Quaternion(HAMILTON, a, b, c, d)


# the named generators
I_H, J, K_UNIT = hamilton(0, 1), hamilton(0, 0, 1), hamilton(0, 0, 0, 1)
I_S, F, G = split(0, 1), split(0, 0, 1), split(0, 0, 0, 1)
H = F + G  # the 2x2 Hadamard matrix as a split quaternion


class MinkowskiVector(namedtuple("MinkowskiVector", "t x y")):
    """Pure split quaternion t*i + x*F + y*G viewed as a vector in R^{1,2}."""

    __slots__ = ()

    def as_quaternion(self) -> Quaternion:
        return split(0, self.t, self.x, self.y)

    def norm2(self) -> Fraction:
        """t^2 - x^2 - y^2; a float raises TypeError, as in as_quaternion."""
        return self.as_quaternion().norm2()

    @staticmethod
    def of(q: Quaternion) -> "MinkowskiVector":
        if q.kind != SPLIT or not q.is_pure():
            raise ValueError("expected a pure split quaternion")
        return MinkowskiVector(q.b, q.c, q.d)


def to_matrix2(q: Quaternion) -> Matrix:
    """Faithful 2x2 representation: Gaussian entries (Hamilton), rational (split)."""
    a, b, c, d, den = q._n
    if q.kind == HAMILTON:
        # 1 -> I, i -> [[0,1],[-1,0]], j -> [[0,i],[i,0]], k -> [[i,0],[0,-i]]
        return Matrix(GAUSS, [
            [Gaussian._of((a, d, den)), Gaussian._of((b, c, den))],
            [Gaussian._of((-b, c, den)), Gaussian._of((a, -d, den))],
        ])
    # 1 -> I, i -> [[0,1],[-1,0]], F -> [[0,1],[1,0]], G -> [[1,0],[0,-1]]
    return Matrix(QQ, [
        [Fraction(a + d, den), Fraction(b + c, den)],
        [Fraction(c - b, den), Fraction(a - d, den)],
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
    a, b, c, d, den = (u * v - v * u)._n
    return u._of((a, b, c, d, 2 * den))


def isotropic_basis():
    """Light-like pair R = (F+i)/2, L = (F-i)/2 together with N = i."""
    half = Fraction(1, 2)
    r = split(0, half, half, 0)
    l = split(0, -half, half, 0)
    return r, l, I_S


def jhhk_check() -> CheckReport:
    """FH = HG with both sides equal to 1 - i, then the same in 2x2 matrices.

    The matrix image of FH = HG is the order-1 master equation: the Kac
    matrix times Hadamard equals Hadamard times diag(1, -1).
    """
    fh, hg, target = F * H, H * G, split(1, -1)
    fh_image = to_matrix2(F) @ to_matrix2(H)
    hg_image = to_matrix2(H) @ to_matrix2(G)
    return check_cells([
        ("FH = HG = 1 - i", [(None, fh, hg), (None, hg, target)]),
        ("FH = HG in 2x2 matrices",
         chain(fh_image.cells(hg_image),
               hg_image.cells(to_matrix2(target)))),
    ])


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
