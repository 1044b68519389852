"""Exact scalar rings that matrix entries live in.

Every scalar here is an immutable value supporting ``+``, ``-``, ``*`` and
Python ``==``, which is exact equality in every ring, the complex floats
included.
Python ``int`` plays the role of the arbitrary-precision integer and
``fractions.Fraction`` the exact rational; the remaining rings are small
custom types:

* :class:`Gaussian`    -- a + b*i with rational components, i**2 = -1
* :class:`RootTwo`     -- a + b*sqrt(2) with rational components
* :class:`Poly2`       -- integer polynomials in two commuting symbols a, b
* ``complex``          -- double-precision complex, for the phase family

``Gaussian``, ``RootTwo`` and :class:`krawtchouk.quaternion.Quaternion`
subclass one base, :class:`_Lowest`: integer numerators over one positive
denominator in lowest terms, so their arithmetic is integer arithmetic and
each value has one stored form; their components still read as
``Fraction``.  The base owns that format: construction from parts,
int/Fraction coercion and the text form.  A multiplication table is a
type: ``Gaussian`` and ``RootTwo``, like the Hamilton and split
quaternions, are sibling classes that differ in the class constant
``_SQUARE``.  Every custom scalar, ``Poly2`` included, takes its
subtraction from one slot-less base, :class:`_Scalar`, over its own
``_coerce``.

One codec serves the custom types.  ``_signed_sum`` writes every one of
them as a signed sum of coefficient-unit terms (``1/2-i``, ``-2/3√2``,
``-F+5/3G``, ``a^2b-2ab+1``); ``_parse_sum`` reads the a, b·u and a±b·u
text of ``Gaussian`` and ``RootTwo``, and refuses anything after the unit.

A :class:`Ring` descriptor bundles the zero/one constants, string
formatting and parsing for each of them, keyed by a short name that is also
used in the JSON serialization of matrices.  The six rings are module
constants, so two rings are equal only when they are the same object, and
:func:`ring_of` finds a scalar's ring from its exact type.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import copysign, gcd, lcm

_new = object.__new__


def parse_rational(text: str) -> Fraction:
    """``Fraction(text)``, with a zero denominator refused as ValueError.

    Every rational text reader goes through here, so bad text, such as
    ``1/0``, is a ValueError naming the text, as any other malformed
    literal is.
    """
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {text!r}") from None


def _frac(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return parse_rational(x)
    raise TypeError(f"cannot interpret {x!r} as an exact rational")


def _lowest(parts: tuple) -> tuple:
    """Integer numerators, positive denominator last, in lowest terms.

    One gcd over all parts divides out their common factor, which gives an
    exact value its one stored form; a denominator of 1 skips it.
    """
    if parts[-1] == 1:
        return parts
    g = gcd(*parts)
    if g == 1:
        return parts
    return tuple([x // g for x in parts])


def _over_common_den(values) -> tuple:
    """Rationals as integer numerators over their least common denominator.

    The result is already lowest: each prime power of the lcm is the whole
    reduced denominator of some value, whose numerator is prime to it.
    """
    if all(type(v) is int for v in values):
        return (*values, 1)
    fracs = [v if isinstance(v, (int, Fraction)) else _frac(v)
             for v in values]
    den = lcm(*[f.denominator for f in fracs])
    return (*[f.numerator * (den // f.denominator) for f in fracs], den)


class _Scalar:
    """Subtraction for every custom scalar, over the subclass's ``_coerce``.

    ``_coerce`` returns an operand as a value of the subclass, or
    ``NotImplemented`` for one it cannot read, so a foreign operand falls
    through to Python's TypeError.
    """

    __slots__ = ()

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self


class _Lowest(_Scalar):
    """Integer numerators over one positive denominator, in lowest terms.

    ``_n = (*numerators, den)`` gives each exact value one stored form, so
    arithmetic is integer arithmetic and equality compares tuples.  A
    subclass names its components in its class statement
    (``components=(...)``), each read as a ``Fraction``, sets ``_units``,
    the unit ``str`` writes after each coefficient, and keeps its own
    unrolled ``+``, negation, conjugation and product.  Siblings that
    differ only in a multiplication table, such as ``Gaussian`` and
    ``RootTwo``, differ in the class constant ``_SQUARE``; no subclass
    adds an instance slot.  This base gives construction from parts,
    int/Fraction coercion and the text form, and :class:`_Scalar` the
    subtraction.
    """

    __slots__ = ("_n",)
    _ZEROS = ()  # the numerators of an int or Fraction after its first

    def __init_subclass__(cls, components=(), **kwargs):
        super().__init_subclass__(**kwargs)
        for index, name in enumerate(components):
            setattr(cls, name, property(
                lambda self, i=index: Fraction(self._n[i], self._n[-1])))
        if components:
            cls._ZEROS = (0,) * (len(components) - 1)

    def _store(self, values) -> None:
        """Keep component values: ints, Fractions or rational text."""
        self._n = _over_common_den(values)

    @classmethod
    def _of(cls, parts: tuple):
        """The element with parts (*numerators, den), den > 0, reduced."""
        z = _new(cls)
        z._n = _lowest(parts)
        return z

    def _coerce(self, other):
        if isinstance(other, type(self)):
            return other
        if isinstance(other, (int, Fraction)):
            return self._of((other.numerator, *self._ZEROS, other.denominator))
        return NotImplemented

    def __str__(self):
        den = self._n[-1]
        return _signed_sum(zip([Fraction(x, den) for x in self._n[:-1]],
                               self._units))


class _Quadratic(_Lowest):
    """(x + y*u)/den in Q[u], for the integer u^2 = ``_SQUARE`` of a subclass.

    ``_n = (x, y, den)``.
    """

    __slots__ = ()
    _SQUARE = 0

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        x1, y1, d1 = self._n
        x2, y2, d2 = other._n
        if d1 == d2:
            return self._of((x1 + x2, y1 + y2, d1))
        return self._of((x1 * d2 + x2 * d1, y1 * d2 + y2 * d1, d1 * d2))

    __radd__ = __add__

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        x1, y1, d1 = self._n
        x2, y2, d2 = other._n
        # (x1 + y1 u)(x2 + y2 u) = x1x2 + u^2 y1y2 + (x1y2 + y1x2) u
        return self._of((x1 * x2 + self._SQUARE * y1 * y2,
                         x1 * y2 + y1 * x2, d1 * d2))

    __rmul__ = __mul__

    def __neg__(self):
        x, y, den = self._n
        return self._of((-x, -y, den))

    def __eq__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self._n == other._n

    def __hash__(self):
        x, y, den = self._n
        if y == 0:
            return hash(Fraction(x, den))  # as the rational it equals
        return hash(self._n)

    def conj(self):
        x, y, den = self._n
        return self._of((x, -y, den))


class Gaussian(_Quadratic, components=("re", "im")):
    """Gaussian number re + im*i with exact rational components."""

    __slots__ = ()
    _SQUARE = -1
    _units = ("", "i")

    def __init__(self, re=0, im=0):
        self._store((re, im))

    def __repr__(self):
        return f"Gaussian({self.re}, {self.im})"


class RootTwo(_Quadratic, components=("a", "b")):
    """Element a + b*sqrt(2) of the quadratic ring Q[sqrt(2)]."""

    __slots__ = ()
    _SQUARE = 2
    _units = ("", "√2")

    def __init__(self, a=0, b=0):
        self._store((a, b))

    def __repr__(self):
        return f"RootTwo({self.a}, {self.b})"


def sqrt2_power(m: int) -> RootTwo:
    """2**(m/2) as an exact element of Q[sqrt(2)], for integer m >= 0."""
    if m < 0:
        raise ValueError("negative half-power of two")
    if m % 2 == 0:
        return RootTwo(2 ** (m // 2), 0)
    return RootTwo(0, 2 ** (m // 2))


class Poly2(_Scalar):
    """Integer polynomial in two commuting symbols ``a`` and ``b``.

    Stored as a mapping (i, j) -> coefficient of a^i b^j; zero coefficients
    are never kept.  Values are treated as immutable.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        clean = {}
        if terms:
            for monom, coeff in terms.items():
                if coeff:
                    clean[monom] = coeff
        self.terms = clean

    def _coerce(self, other):
        if isinstance(other, Poly2):
            return other
        if isinstance(other, int):
            return Poly2({(0, 0): other})
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        terms = dict(self.terms)
        for monom, coeff in other.terms.items():
            new = terms.get(monom, 0) + coeff
            if new:
                terms[monom] = new
            else:
                terms.pop(monom, None)
        return Poly2(terms)

    __radd__ = __add__

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        terms: dict = {}
        for (i1, j1), c1 in self.terms.items():
            for (i2, j2), c2 in other.terms.items():
                monom = (i1 + i2, j1 + j2)
                terms[monom] = terms.get(monom, 0) + c1 * c2
        return Poly2(terms)

    __rmul__ = __mul__

    def __neg__(self):
        return Poly2({m: -c for m, c in self.terms.items()})

    def __eq__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        if self.terms.keys() <= {(0, 0)}:
            return hash(self.terms.get((0, 0), 0))  # as the int it equals
        return hash(frozenset(self.terms.items()))

    def __bool__(self):
        return bool(self.terms)

    def evaluate(self, a_val, b_val):
        """Substitute values for the symbols; works over any ring."""
        total = None
        for (i, j), coeff in self.terms.items():
            term = coeff
            for _ in range(i):
                term = term * a_val
            for _ in range(j):
                term = term * b_val
            total = term if total is None else total + term
        if total is None:
            return 0 * a_val  # zero of the target ring
        return total

    def __str__(self):
        terms = []
        for (i, j) in sorted(self.terms, key=lambda m: (-(m[0] + m[1]), -m[0])):
            mono = ""
            if i:
                mono += "a" if i == 1 else f"a^{i}"
            if j:
                mono += "b" if j == 1 else f"b^{j}"
            terms.append((self.terms[(i, j)], mono))
        return _signed_sum(terms)

    def __repr__(self):
        return f"Poly2({self.terms!r})"


ALPHA = Poly2({(1, 0): 1})
BETA = Poly2({(0, 1): 1})


# ---------------------------------------------------------------------------
# formatting / parsing
# ---------------------------------------------------------------------------

def _signed_sum(terms) -> str:
    """(coefficient, unit) pairs as a signed sum such as ``1/2-i`` or ``-F+5/3G``.

    Zero terms are dropped, a coefficient of magnitude 1 is written only
    on the unitless term, and an empty sum is ``0``.
    """
    out = ""
    for coeff, unit in terms:
        if coeff:
            mag = abs(coeff)
            sign = "-" if coeff < 0 else "+" if out else ""
            out += sign + (unit if unit and mag == 1 else f"{mag}{unit}")
    return out or "0"


_SUM_RE = re.compile(r"([+-]?\d+(?:/\d+)?)?([+-](?:\d+(?:/\d+)?)?)?")


def _parse_sum(s: str, cls, unit: str, *aliases):
    """The text a, b·unit or a±b·unit as ``cls(a, b)``; a lone sign is ±1.

    Spaces are ignored and each alias is read as ``unit``; text that does
    not end in ``unit`` must be a rational.
    """
    s = s.strip().replace(" ", "")
    for alias in aliases:
        s = s.replace(alias, unit)
    if not s.endswith(unit):
        return cls(s)
    m = _SUM_RE.fullmatch(s[:-len(unit)])
    if m is None:
        raise ValueError(f"bad {cls.__name__} literal {s!r}")
    a, b = m.groups()
    if b is None:  # "unit", "3unit", "-1/2unit": no rational part
        return cls(0, a or 1)
    return cls(a or 0, b + "1" if b in ("+", "-") else b)


def parse_gaussian(s: str) -> Gaussian:
    return _parse_sum(s, Gaussian, "i")


def parse_root2(s: str) -> RootTwo:
    return _parse_sum(s, RootTwo, "√2", "sqrt(2)", "sqrt2")


_TERM_RE = re.compile(r"^(?P<coeff>\d+)?(?P<mono>(?:a(?:\^\d+)?)?(?:b(?:\^\d+)?)?)$")


def parse_poly2(s: str) -> Poly2:
    s = s.strip().replace(" ", "").replace("*", "")
    if s in ("0", "+0", "-0"):
        return Poly2()
    terms: dict = {}
    for sign, body in re.findall(r"([+-]?)([^+-]+)", s):
        m = _TERM_RE.match(body)
        if m is None or (m.group("coeff") is None and not m.group("mono")):
            raise ValueError(f"bad polynomial term {body!r} in {s!r}")
        coeff = int(m.group("coeff") or "1")
        if sign == "-":
            coeff = -coeff
        i = j = 0
        mono = m.group("mono")
        ma = re.search(r"a(?:\^(\d+))?", mono)
        mb = re.search(r"b(?:\^(\d+))?", mono)
        if ma:
            i = int(ma.group(1) or "1")
        if mb:
            j = int(mb.group(1) or "1")
        terms[(i, j)] = terms.get((i, j), 0) + coeff
    return Poly2(terms)


def fmt_complex(z: complex) -> str:
    """``re±imi`` with both parts in ``repr``, so every bit and a -0.0
    imaginary part survive :func:`parse_complex`."""
    sign = "-" if copysign(1.0, z.imag) < 0 else "+"
    return f"{z.real!r}{sign}{abs(z.imag)!r}i"


def parse_complex(s: str) -> complex:
    """Text ending in ``i`` read by ``complex()`` with ``j`` for ``i``;
    any other text must be a real float."""
    s = s.strip().replace(" ", "")
    if s.endswith("i"):
        return complex(s[:-1] + "j")
    return complex(float(s), 0.0)


# ---------------------------------------------------------------------------
# ring descriptors
# ---------------------------------------------------------------------------

class Ring:
    """Descriptor tying together the constants and codecs of one scalar ring."""

    def __init__(self, name, zero, one, fmt, parse):
        self.name = name
        self.zero = zero
        self.one = one
        self.fmt = fmt
        self.parse = parse

    def __repr__(self):
        return f"Ring({self.name})"


ZZ = Ring("integer", 0, 1, str, lambda s: int(s.strip()))
QQ = Ring("rational", Fraction(0), Fraction(1), str,
          lambda s: parse_rational(s.strip()))
GAUSS = Ring("gaussian", Gaussian(0), Gaussian(1), str, parse_gaussian)
ROOT2 = Ring("root2", RootTwo(0), RootTwo(1), str, parse_root2)
POLY2 = Ring("poly2", Poly2(), Poly2({(0, 0): 1}), str, parse_poly2)
CC = Ring("complex", 0j, 1 + 0j, fmt_complex, parse_complex)

RINGS = {r.name: r for r in (ZZ, QQ, GAUSS, ROOT2, POLY2, CC)}


_RING_OF_TYPE = {int: ZZ, Fraction: QQ, Gaussian: GAUSS, RootTwo: ROOT2,
                 Poly2: POLY2, complex: CC}


def ring_of(value) -> Ring:
    """The ring descriptor of a scalar, read off its exact type.

    A ``bool`` is refused, as is any type not in the table.
    """
    try:
        return _RING_OF_TYPE[type(value)]
    except KeyError:
        raise TypeError(
            f"no ring registered for {type(value).__name__}") from None
