"""Ring axioms and codec round-trips for the exact scalar types."""

import struct
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from krawtchouk import quaternion as qt
from krawtchouk.matrix import Matrix
from krawtchouk.rings import (
    ALPHA,
    BETA,
    CC,
    GAUSS,
    Gaussian,
    POLY2,
    Poly2,
    QQ,
    RINGS,
    ROOT2,
    RootTwo,
    ZZ,
    _Lowest,
    parse_complex,
    parse_gaussian,
    parse_poly2,
    parse_rational,
    parse_root2,
    ring_of,
    sqrt2_power,
)

fractions = st.fractions(min_value=-1000, max_value=1000, max_denominator=1000)
gaussians = st.builds(Gaussian, fractions, fractions)
root2s = st.builds(RootTwo, fractions, fractions)
small_ints = st.integers(min_value=-20, max_value=20)
poly2s = st.builds(
    lambda coeffs: Poly2({(i, j): c for (i, j), c in coeffs.items()}),
    st.dictionaries(st.tuples(st.integers(0, 4), st.integers(0, 4)),
                    small_ints, max_size=5),
)


same_ring_triples = st.one_of(
    st.tuples(gaussians, gaussians, gaussians),
    st.tuples(root2s, root2s, root2s),
    st.tuples(poly2s, poly2s, poly2s),
)


@settings(max_examples=150)
@given(same_ring_triples)
def test_ring_axioms(triple):
    x, y, z = triple
    assert (x + y) + z == x + (y + z)
    assert (x * y) * z == x * (y * z)
    assert x + y == y + x
    assert x * y == y * x
    assert x * (y + z) == x * y + x * z
    zero = x - x
    one = ring_of(x).one
    assert x + zero == x
    assert x * one == x
    assert x + (-x) == zero


@given(fractions, fractions)
def test_root2_conjugate_product(a, b):
    x = RootTwo(a, b)
    assert x * x.conj() == RootTwo(a * a - 2 * b * b, 0)


def test_root2_sqrt2_squares_to_two():
    s = RootTwo(0, 1)
    assert s * s == RootTwo(2, 0)
    assert sqrt2_power(5) == RootTwo(0, 4)
    assert sqrt2_power(6) == RootTwo(8, 0)


def test_gaussian_unit():
    i = Gaussian(0, 1)
    assert i * i == Gaussian(-1, 0)
    assert (Gaussian(2, 3) * Gaussian(2, -3)) == Gaussian(13, 0)


@settings(max_examples=60)
@given(poly2s, poly2s, st.integers(-5, 5), st.integers(-5, 5))
def test_poly2_evaluation_homomorphism(p, q, a0, b0):
    assert (p * q).evaluate(a0, b0) == p.evaluate(a0, b0) * q.evaluate(a0, b0)


def test_poly2_generators():
    p = (ALPHA + BETA) * (ALPHA - BETA)
    assert p == ALPHA * ALPHA - BETA * BETA
    assert p.evaluate(3, 2) == 5


@pytest.mark.parametrize("ring,values", [
    (ZZ, [0, 7, -123456789]),
    (QQ, [Fraction(0), Fraction(-3, 7), Fraction(22, 11)]),
    (GAUSS, [Gaussian(0), Gaussian(2, 3), Gaussian(0, -1),
             Gaussian(Fraction(1, 2), Fraction(-5, 3)), Gaussian(-4, 0)]),
    (ROOT2, [RootTwo(0), RootTwo(3, -2), RootTwo(0, 1),
             RootTwo(Fraction(-1, 2), Fraction(7, 3)), RootTwo(5, 0)]),
    (POLY2, [Poly2(), Poly2({(0, 0): -3}), ALPHA, BETA * 2,
             Poly2({(2, 1): 3, (0, 0): -1, (1, 1): 1})]),
])
def test_format_parse_round_trip(ring, values):
    for value in values:
        text = ring.fmt(value)
        assert ring.parse(text) == value, (text, value)


# one value strategy per ring; complex floats keep -0.0 and infinities
RING_VALUES = {
    ZZ: st.integers(),
    QQ: fractions,
    GAUSS: gaussians,
    ROOT2: root2s,
    POLY2: poly2s,
    CC: st.complex_numbers(allow_nan=False),
}


def exact_key(ring, value):
    """The value itself, or its bytes for a complex float, so -0.0 != 0.0."""
    if ring is CC:
        return struct.pack("dd", value.real, value.imag)
    return value


def exact_keys(mat):
    return [[exact_key(mat.ring, x) for x in row] for row in mat.data]


@seed(20261019)
@settings(max_examples=200)
@given(st.sampled_from(list(RINGS.values())), st.integers(1, 3),
       st.integers(1, 3), st.data())
def test_text_codecs_round_trip_every_ring(ring, rows, cols, data):
    assert set(RING_VALUES) == set(RINGS.values())
    values = st.lists(RING_VALUES[ring], min_size=cols, max_size=cols)
    mat = Matrix(ring, data.draw(st.lists(values, min_size=rows,
                                          max_size=rows)))
    assert [[exact_key(ring, ring.parse(ring.fmt(x))) for x in row]
            for row in mat.data] == exact_keys(mat)
    for back in (Matrix.from_json(mat.to_json()),
                 Matrix.from_csv(mat.to_csv(), ring)):
        assert back.ring is ring and back.shape == mat.shape
        assert exact_keys(back) == exact_keys(mat)


def test_complex_ring_is_exact():
    # the text form keeps every bit, so exact equality survives it
    for z in (0.5 - 2.25j, 1 + 1j + 1e-12, -3.25 + 0j):
        assert parse_complex(CC.fmt(z)) == z
    assert parse_complex(CC.fmt(1 + 1j + 1e-12)) != 1 + 1j


def test_parse_edge_cases():
    assert parse_gaussian("-i") == Gaussian(0, -1)
    assert parse_gaussian("3/2-1/2i") == Gaussian(Fraction(3, 2), Fraction(-1, 2))
    assert parse_root2("√2") == RootTwo(0, 1)
    assert parse_root2("1-√2") == RootTwo(1, -1)
    assert parse_root2("sqrt(2)") == RootTwo(0, 1)
    assert parse_poly2("a^2b-2ab+1") == \
        Poly2({(2, 1): 1, (1, 1): -2, (0, 0): 1})
    assert parse_poly2("0") == Poly2()


@pytest.mark.parametrize("text,value", [
    ("i", Gaussian(0, 1)),
    ("+i", Gaussian(0, 1)),
    ("-2/3i", Gaussian(0, Fraction(-2, 3))),
    ("1 + i", Gaussian(1, 1)),
    ("+3i", Gaussian(0, 3)),
    ("-5/7", Gaussian(Fraction(-5, 7))),
    ("1 + √2", RootTwo(1, 1)),
    ("+√2", RootTwo(0, 1)),
    ("3sqrt2", RootTwo(0, 3)),
    ("sqrt (2)", RootTwo(0, 1)),
    ("2/4+6/8√2", RootTwo(Fraction(1, 2), Fraction(3, 4))),
    ("-1/2√2", RootTwo(0, Fraction(-1, 2))),
    ("1.5", RootTwo(Fraction(3, 2))),
])
def test_sum_literals_parse(text, value):
    parse = parse_gaussian if isinstance(value, Gaussian) else parse_root2
    assert parse(text) == value


@pytest.mark.parametrize("parse,text", [
    *((parse_gaussian, text) for text in
      ("1+2+3i", "i2", "2ii", "1.5i", "--i", "3+-2i", "√2")),
    *((parse_root2, text) for text in ("i", "1+2+3√2", "2√3")),
    # text after the first √2 is part of the literal, not dropped
    *((parse_root2, text) for text in ("2√2+7", "√2√2", "3-√2+99")),
])
def test_malformed_sum_literals_are_refused(parse, text):
    with pytest.raises(ValueError):
        parse(text)


def test_matrix_json_refuses_text_after_the_root():
    good = ('{"rows": 1, "cols": 2, "ring": "root2",'
            ' "entries": [["3-√2", "1"]]}')
    assert Matrix.from_json(good) == \
        Matrix(ROOT2, [[RootTwo(3, -1), RootTwo(1)]])
    with pytest.raises(ValueError):
        Matrix.from_json(good.replace("3-√2", "3-√2+99"))


@pytest.mark.parametrize("read,text", [
    (parse_rational, "1/0"),
    (parse_rational, "-3/0"),
    (QQ.parse, " 1/0 "),
    (parse_gaussian, "1/0i"),
    (parse_gaussian, "2+1/0i"),
    (parse_gaussian, "1/0"),
    (parse_root2, "1/0√2"),
    (parse_root2, "1/0+√2"),
    (Gaussian, "5/0"),
    (RootTwo, "5/0"),
    (lambda text: qt.split(text), "1/0"),
])
def test_zero_denominators_are_value_errors_naming_the_text(read, text):
    with pytest.raises(ValueError, match="zero denominator in '.*/0'"):
        read(text)


@pytest.mark.parametrize("ring,cell", [(QQ, "1/0"), (GAUSS, "1/0i"),
                                       (ROOT2, "1/0√2")])
def test_matrix_readers_refuse_zero_denominators(ring, cell):
    payload = ('{"rows": 1, "cols": 2, "ring": "%s", "entries": [["1", "%s"]]}'
               % (ring.name, cell))
    with pytest.raises(ValueError, match="zero denominator"):
        Matrix.from_json(payload)
    with pytest.raises(ValueError, match="zero denominator"):
        Matrix.from_csv(f"1,{cell}\n", ring)


# The exact text of each exact type: str, and ring.fmt where it has a ring.
@pytest.mark.parametrize("value,text", [
    (Gaussian(0), "0"),
    (Gaussian(1), "1"),
    (Gaussian(-1), "-1"),
    (Gaussian(0, 1), "i"),
    (Gaussian(0, -1), "-i"),
    (Gaussian(Fraction(1, 2), -1), "1/2-i"),
    (Gaussian(-3, 1), "-3+i"),
    (Gaussian(Fraction(-1, 2), Fraction(5, 3)), "-1/2+5/3i"),
    (Gaussian(0, Fraction(-2, 3)), "-2/3i"),
    (RootTwo(0), "0"),
    (RootTwo(0, 1), "√2"),
    (RootTwo(1, -1), "1-√2"),
    (RootTwo(0, Fraction(-2, 3)), "-2/3√2"),
    (RootTwo(Fraction(-7, 4), 2), "-7/4+2√2"),
    (RootTwo(Fraction(5, 2)), "5/2"),
    (Poly2(), "0"),
    (Poly2({(0, 0): -3}), "-3"),
    (ALPHA, "a"),
    (-BETA, "-b"),
    (Poly2({(2, 1): 1, (1, 1): -2, (0, 0): 1}), "a^2b-2ab+1"),
    (Poly2({(0, 2): -1, (1, 0): 5, (0, 0): -1}), "-b^2+5a-1"),
    (qt.split(), "0"),
    (qt.split(-1), "-1"),
    (qt.split(0, 0, -1, Fraction(5, 3)), "-F+5/3G"),
    (qt.split(Fraction(1, 2), -1, 1, -1), "1/2-i+F-G"),
    (qt.split(1, -1), "1-i"),
    (qt.hamilton(0, 0, -1, -1), "-j-k"),
    (qt.hamilton(0, 1), "i"),
    (qt.hamilton(-2, Fraction(-1, 3), 0, 4), "-2-1/3i+4k"),
])
def test_exact_text(value, text):
    assert str(value) == text
    if not isinstance(value, qt.Quaternion):
        assert ring_of(value).fmt(value) == text


def assert_canonical(x):
    """One stored form: numerators over a positive den, gcd 1."""
    den = x._n[-1]
    assert type(den) is int and den > 0
    assert all(type(part) is int for part in x._n)
    assert gcd(*x._n) == 1


# Each exact type against a plain component-wise Fraction model:
# (type, component names, model product, model conjugate)
MODELS = [
    (Gaussian, ("re", "im"),
     lambda u, v: (u[0] * v[0] - u[1] * v[1], u[0] * v[1] + u[1] * v[0])),
    (RootTwo, ("a", "b"),
     lambda u, v: (u[0] * v[0] + 2 * u[1] * v[1], u[0] * v[1] + u[1] * v[0])),
]


@seed(20260501)
@settings(max_examples=100)
@given(st.sampled_from(MODELS), fractions, fractions, fractions, fractions)
def test_exact_types_match_fraction_model(model, a, b, c, d):
    cls, names, product = model
    x, y = cls(a, b), cls(c, d)

    def model_of(value):
        assert_canonical(value)
        parts = tuple(getattr(value, name) for name in names)
        assert all(type(part) is Fraction for part in parts)
        return parts

    assert model_of(x) == (a, b) and model_of(y) == (c, d)
    assert model_of(x + y) == (a + c, b + d)
    assert model_of(x - y) == (a - c, b - d)
    assert model_of(x * y) == product((a, b), (c, d))
    assert model_of(-x) == (-a, -b)
    assert model_of(x.conj()) == (a, -b)
    assert model_of(x + c) == (a + c, b)
    assert model_of(c - x) == (c - a, -b)
    assert model_of(x * c) == (a * c, b * c)
    assert (x == y) == ((a, b) == (c, d))
    assert x == cls(a, b) and hash(x) == hash(cls(a, b))
    if b == 0:
        assert x == a and hash(x) == hash(a)


@pytest.mark.parametrize("cls", [Gaussian, RootTwo])
def test_rational_values_hash_like_their_rational(cls):
    for value in (3, -7, 0, Fraction(1, 2), Fraction(-22, 6)):
        assert cls(value) == value
        assert hash(cls(value)) == hash(value)
        assert len({cls(value), value}) == 1
    assert hash(cls(Fraction(4, 2), 0)) == hash(2)
    assert cls(1, 1) != 1


@pytest.mark.parametrize("value", [Gaussian(1), RootTwo(1), POLY2.one])
def test_foreign_operands_raise_type_error(value):
    for foreign in ("x", 1.5, None):
        with pytest.raises(TypeError):
            foreign - value
        with pytest.raises(TypeError):
            value - foreign
        with pytest.raises(TypeError):
            foreign + value
        with pytest.raises(TypeError):
            foreign * value


@pytest.mark.parametrize("value,attrs,text", [
    (Gaussian(1, Fraction(-1, 2)), ("re", "im"), "Gaussian(1, -1/2)"),
    (RootTwo(Fraction(3, 4), 2), ("a", "b"), "RootTwo(3/4, 2)"),
])
def test_values_are_read_only(value, attrs, text):
    for attr in attrs:
        with pytest.raises(AttributeError):
            setattr(value, attr, 1)
    with pytest.raises(AttributeError):
        value.extra = 1
    assert repr(value) == text


def subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from subclasses(sub)


def test_no_lowest_subclass_adds_an_instance_slot():
    # a kind or a multiplication table is a class constant, never per value
    found = set(subclasses(_Lowest))
    assert {Gaussian, RootTwo, qt.Quaternion, qt.hamilton, qt.split} <= found
    for cls in found:
        assert cls.__dict__.get("__slots__") == (), cls


def test_the_quaternion_product_is_defined_once():
    # the benchmark's tracer wraps Quaternion.__mul__ and must see every kind
    found = set(subclasses(qt.Quaternion))
    assert {qt.hamilton, qt.split} <= found
    for cls in found:
        assert "__mul__" not in vars(cls) and "__rmul__" not in vars(cls), cls


@pytest.mark.parametrize("value", [True, 1.5, None, qt.H])
def test_ring_of_refuses_a_type_it_does_not_register(value):
    with pytest.raises(TypeError, match="no ring registered"):
        ring_of(value)
