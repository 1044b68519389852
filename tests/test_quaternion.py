"""Quaternion algebras: tables, norms, actions, and the Hadamard element."""

import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from krawtchouk import quaternion as qt
from krawtchouk.matrix import Matrix
from krawtchouk.rings import GAUSS, Gaussian, QQ


def test_split_multiplication_table():
    i, F, G = qt.I_S, qt.F, qt.G
    assert i * i == qt.split(-1)
    assert F * F == qt.split(1)
    assert G * G == qt.split(1)
    assert i * F == G and F * i == -G
    assert F * G == -i and G * F == i
    assert G * i == F and i * G == -F


def test_hamilton_multiplication_table():
    i, j, k = qt.I_H, qt.J, qt.K_UNIT
    for unit in (i, j, k):
        assert unit * unit == qt.hamilton(-1)
    assert i * j == k and j * i == -k
    assert j * k == i and k * j == -i
    assert k * i == j and i * k == -j
    assert (i * j) * k == qt.hamilton(-1)


def test_mixed_kind_arithmetic_rejected():
    with pytest.raises(ValueError):
        qt.I_H * qt.F
    with pytest.raises(ValueError):
        qt.adjoint_act(qt.H, qt.J)
    with pytest.raises(ValueError, match="mixed Hamilton/split"):
        qt.lie_bracket(qt.I_H, qt.I_S)
    assert qt.I_H != qt.I_S and qt.hamilton(1) != qt.split(1)


def test_a_quaternion_has_a_kind():
    for args in ((), (1, 2, 3, 4), (qt.HAMILTON, 1)):
        with pytest.raises(TypeError, match="hamilton"):
            qt.Quaternion(*args)


def test_norms_and_inverse():
    assert (qt.split(1) + qt.F).norm2() == 0  # null vector 1 + F
    with pytest.raises(ZeroDivisionError):
        (qt.split(1) + qt.F).inverse()
    h = qt.H
    assert h.norm2() == -2
    assert h.inverse() == qt.split(0, 0, Fraction(1, 2), Fraction(1, 2))
    assert h * h.inverse() == qt.split(1)
    p = qt.hamilton(1, 2, 3, 4)
    assert p.norm2() == 30
    assert p * p.inverse() == qt.hamilton(1)


def test_norm_multiplicativity_and_conjugation_random():
    rng = random.Random(3)
    for make in (qt.hamilton, qt.split):
        for _ in range(300):
            p = make(*(Fraction(rng.randint(-8, 8), rng.randint(1, 8))
                       for _ in range(4)))
            q = make(*(Fraction(rng.randint(-8, 8), rng.randint(1, 8))
                       for _ in range(4)))
            assert (p * q).norm2() == p.norm2() * q.norm2()
            assert (p * q).conj() == q.conj() * p.conj()


def test_matrix_representations():
    assert qt.to_matrix2(qt.F + qt.G) == Matrix(QQ, [[1, 1], [1, -1]])
    assert qt.to_matrix2(qt.split(1)) == Matrix.identity(2, QQ)
    assert qt.to_matrix2(qt.hamilton(1)) == Matrix.identity(2, GAUSS)
    fg = qt.to_matrix2(qt.F) @ qt.to_matrix2(qt.G)
    assert fg == qt.to_matrix2(-qt.I_S)
    # trace of a pure quaternion is zero in both representations
    for pure in (qt.hamilton(0, 2, -1, 5), qt.split(0, 2, -1, 5)):
        m = qt.to_matrix2(pure)
        assert m[0, 0] + m[1, 1] == 0


def test_matrix_representation_is_homomorphism_random():
    rng = random.Random(5)
    for make in (qt.hamilton, qt.split):
        for _ in range(100):
            p = make(*(rng.randint(-6, 6) for _ in range(4)))
            q = make(*(rng.randint(-6, 6) for _ in range(4)))
            assert qt.to_matrix2(p) @ qt.to_matrix2(q) == qt.to_matrix2(p * q)


def test_adjoint_action():
    assert qt.adjoint_act(qt.H, qt.G) == qt.F
    assert qt.adjoint_act(qt.H, qt.F) == qt.G
    assert qt.adjoint_act(qt.H, qt.I_S) == -qt.I_S
    assert qt.adjoint_act(qt.split(1), qt.G) == qt.G  # identity acts trivially
    with pytest.raises(ValueError):
        qt.adjoint_act(qt.H, qt.split(1, 1))  # not pure
    with pytest.raises(ZeroDivisionError):
        qt.adjoint_act(qt.split(1) + qt.F, qt.G)  # null conjugator


def test_adjoint_preserves_minkowski_norm():
    rng = random.Random(9)
    count = 0
    while count < 100:
        g = qt.split(*(Fraction(rng.randint(-6, 6), rng.randint(1, 4))
                       for _ in range(4)))
        if g.norm2() == 0:
            continue
        v = qt.split(0, *(rng.randint(-9, 9) for _ in range(3)))
        image = qt.adjoint_act(g, v)
        assert image.is_pure()
        assert image.norm2() == v.norm2()
        count += 1


def test_reflection():
    for v in (qt.I_S, qt.F, qt.G, qt.split(0, 2, 3, -1)):
        assert qt.reflect(qt.G, qt.reflect(qt.G, v)) == v
    assert qt.reflect(qt.F, qt.F) == -qt.F
    assert qt.reflect(qt.F, qt.G) == qt.G  # perpendicular plane is fixed
    assert qt.reflect(qt.I_H, qt.J) == qt.J
    with pytest.raises(ValueError):
        qt.reflect(qt.split(1), qt.G)  # axis must be pure


def test_lie_brackets():
    assert qt.lie_bracket(qt.I_S, qt.F) == qt.G
    assert qt.lie_bracket(qt.F, qt.G) == -qt.I_S
    assert qt.lie_bracket(qt.G, qt.I_S) == qt.F
    assert qt.lie_bracket(qt.J, qt.K_UNIT) == qt.I_H
    assert qt.lie_bracket(qt.F, qt.F) == qt.split(0)


def test_jacobi_identity_random():
    rng = random.Random(13)
    for make in (qt.hamilton, qt.split):
        for _ in range(60):
            u, v, w = (make(0, *(rng.randint(-5, 5) for _ in range(3)))
                       for _ in range(3))
            total = qt.lie_bracket(u, qt.lie_bracket(v, w)) \
                + qt.lie_bracket(v, qt.lie_bracket(w, u)) \
                + qt.lie_bracket(w, qt.lie_bracket(u, v))
            assert total == make(0)


def test_isotropic_basis():
    r, l, n = qt.isotropic_basis()
    assert r.norm2() == 0 and l.norm2() == 0
    assert n == qt.I_S
    assert r - l == n                       # the pair straddles N
    assert qt.lie_bracket(l, r) == qt.split(0, 0, 0, Fraction(-1, 2))
    half = Fraction(1, 2)
    assert r == qt.split(0, half, half, 0)
    assert l == qt.split(0, -half, half, 0)


def test_jhhk(monkeypatch):
    assert qt.jhhk_check().ok
    assert qt.F * qt.H == qt.split(1, -1) == qt.H * qt.G  # both are 1 - i
    monkeypatch.setattr(qt, "G", qt.split(0, 0, 0, 2))
    report = qt.jhhk_check()
    assert (report.ok, report.note, report.location) == (
        False, "FH = HG = 1 - i", None)
    assert (report.lhs, report.rhs) == (str(qt.F * qt.H), str(qt.H * qt.G))


def test_hadamard_conjugation_true_images():
    images = qt.hadamard_conjugation()
    half = Fraction(1, 2)
    assert images["F"] == qt.G
    assert images["G"] == qt.F
    assert images["i"] == -qt.I_S
    assert images["N"] == -qt.I_S
    # the (F, i)-plane null pair lands in the (G, i) plane, not on -R, -L
    assert images["R"] == qt.split(0, -half, 0, half)   # (G - i)/2
    assert images["L"] == qt.split(0, half, 0, half)    # (G + i)/2
    r, l, n = qt.isotropic_basis()
    assert images["R"] != -l and images["L"] != -r


def test_no_linear_action_can_flip_the_null_pair():
    # R - L = N forces Ad(R) - Ad(L) = Ad(N) for every conjugation; the
    # images (-R, -L, -N) would need N = -N instead.
    rng = random.Random(21)
    r, l, n = qt.isotropic_basis()
    for _ in range(50):
        g = qt.split(*(rng.randint(-5, 5) for _ in range(4)))
        if g.norm2() == 0:
            continue
        assert qt.adjoint_act(g, r) - qt.adjoint_act(g, l) == \
            qt.adjoint_act(g, n)
    # conjugation by N itself realizes L -> -R, R -> -L, but fixes N
    assert qt.adjoint_act(qt.I_S, l) == -r
    assert qt.adjoint_act(qt.I_S, r) == -l
    assert qt.adjoint_act(qt.I_S, n) == n


def test_minkowski_vector_view():
    v = qt.MinkowskiVector(Fraction(3), Fraction(1), Fraction(2))
    assert v.norm2() == 9 - 1 - 4
    assert v.as_quaternion() == qt.split(0, 3, 1, 2)
    assert qt.MinkowskiVector.of(qt.split(0, 3, 1, 2)) == v
    with pytest.raises(ValueError):
        qt.MinkowskiVector.of(qt.split(1, 1, 0, 0))


def test_minkowski_norm_refuses_floats_like_its_quaternion():
    v = qt.MinkowskiVector(0.1, 0, 0)
    for view in (v.as_quaternion, v.norm2):
        with pytest.raises(TypeError, match="exact rational"):
            view()
    # exact inputs keep t^2 - x^2 - y^2, ints, Fractions and text alike
    w = qt.MinkowskiVector(Fraction(1, 2), -3, "2/3")
    assert w.norm2() == Fraction(1, 4) - 9 - Fraction(4, 9)
    assert type(w.norm2()) is Fraction


# Literal unit tables: TABLES[kind][u][v] is the product of units u and v,
# rows and columns in the order (1, i, j, k) or (1, i, F, G).
UNITS = {qt.HAMILTON: ("1", "i", "j", "k"), qt.SPLIT: ("1", "i", "F", "G")}
TABLES = {
    qt.HAMILTON: [["1", "i", "j", "k"],
                  ["i", "-1", "k", "-j"],
                  ["j", "-k", "-1", "i"],
                  ["k", "j", "-i", "-1"]],
    qt.SPLIT: [["1", "i", "F", "G"],
               ["i", "-1", "G", "-F"],
               ["F", "-G", "1", "-i"],
               ["G", "F", "i", "1"]],
}
MAKERS = {qt.HAMILTON: qt.hamilton, qt.SPLIT: qt.split}


def table_entry(kind, u, v):
    """(sign, unit index) of the literal product of units u and v."""
    text = TABLES[kind][u][v]
    sign = -1 if text.startswith("-") else 1
    return sign, UNITS[kind].index(text.lstrip("-"))


def unit(kind, index):
    coeffs = [0, 0, 0, 0]
    coeffs[index] = 1
    return MAKERS[kind](*coeffs)


@pytest.mark.parametrize("kind", [qt.HAMILTON, qt.SPLIT])
def test_all_unit_products_match_literal_table(kind):
    for u in range(4):
        for v in range(4):
            sign, w = table_entry(kind, u, v)
            assert unit(kind, u) * unit(kind, v) == sign * unit(kind, w), \
                (kind, UNITS[kind][u], UNITS[kind][v])


def model_product(kind, x, y):
    """Component-wise Fraction product through the literal unit table."""
    out = [Fraction(0)] * 4
    for u in range(4):
        for v in range(4):
            sign, w = table_entry(kind, u, v)
            out[w] += sign * x[u] * y[v]
    return tuple(out)


def model_of(q):
    den = q._n[-1]
    assert den > 0 and gcd(*q._n) == 1
    parts = (q.a, q.b, q.c, q.d)
    assert all(type(part) is Fraction for part in parts)
    return parts


rationals = st.fractions(min_value=-50, max_value=50, max_denominator=60)
coefficients = st.tuples(rationals, rationals, rationals, rationals)


@seed(20260502)
@settings(max_examples=100)
@given(st.sampled_from([qt.HAMILTON, qt.SPLIT]), coefficients, coefficients,
       rationals)
def test_quaternions_match_fraction_model(kind, x, y, r):
    p, q = MAKERS[kind](*x), MAKERS[kind](*y)
    square = 1 if kind == qt.SPLIT else -1
    assert model_of(p) == x and model_of(q) == y
    assert model_of(p + q) == tuple(s + t for s, t in zip(x, y))
    assert model_of(p - q) == tuple(s - t for s, t in zip(x, y))
    assert model_of(p * q) == model_product(kind, x, y)
    assert model_of(-p) == tuple(-s for s in x)
    assert model_of(p.conj()) == (x[0], -x[1], -x[2], -x[3])
    assert model_of(p * r) == model_of(r * p) == tuple(s * r for s in x)
    assert model_of(r - p) == (r - x[0], -x[1], -x[2], -x[3])
    norm = x[0] ** 2 + x[1] ** 2 - square * (x[2] ** 2 + x[3] ** 2)
    assert type(p.norm2()) is Fraction and p.norm2() == norm
    assert (p == q) == (x == y)
    assert p == MAKERS[kind](*x) and hash(p) == hash(MAKERS[kind](*x))
    if norm == 0:
        with pytest.raises(ZeroDivisionError):
            p.inverse()
    else:
        conj = (x[0], -x[1], -x[2], -x[3])
        assert model_of(p.inverse()) == tuple(s / norm for s in conj)
        assert p * p.inverse() == MAKERS[kind](1)


def test_foreign_operands_raise_type_error():
    for foreign in ("x", 1.5, None):
        with pytest.raises(TypeError):
            foreign - qt.F
        with pytest.raises(TypeError):
            qt.F - foreign
        with pytest.raises(TypeError):
            foreign * qt.F
        with pytest.raises(TypeError):
            foreign + qt.F


@pytest.mark.parametrize("make", [qt.split, qt.hamilton])
def test_float_coefficients_are_refused_like_the_other_exact_types(make):
    for args in [(0.1,), (1, 0.5), (0, 0, 2.0), (0, 0, 0, -1e-3)]:
        with pytest.raises(TypeError, match="exact rational"):
            make(*args)
    with pytest.raises(TypeError, match="exact rational"):
        Gaussian(0.1)
    # ints, Fractions and rational text read as before
    q = make(3, Fraction(-1, 2), "5/3", "-2")
    assert (q.a, q.b, q.c, q.d) == (3, Fraction(-1, 2), Fraction(5, 3), -2)
    assert q == make(Fraction(3), "-1/2", Fraction(5, 3), -2)


def test_values_are_read_only():
    for attr in ("kind", "a", "b", "c", "d"):
        with pytest.raises(AttributeError):
            setattr(qt.H, attr, 1)
    with pytest.raises(AttributeError):
        qt.H.extra = 1
    assert qt.H == qt.split(0, 0, 1, 1)
    assert repr(qt.H) == ("Quaternion(kind='Split', a=Fraction(0, 1), "
                          "b=Fraction(0, 1), c=Fraction(1, 1), "
                          "d=Fraction(1, 1))")
