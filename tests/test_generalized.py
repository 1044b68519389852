"""Ring-valued matrices, phase matrices, and snake figures."""

import cmath
import math
from math import comb

import pytest

from krawtchouk import core, generalized
from krawtchouk.matrix import Matrix
from krawtchouk.rings import ALPHA, GAUSS, Gaussian, POLY2, parse_poly2

from tables import GENERAL_2, GENERAL_3, PHASE_I


def poly_matrix(rows):
    return Matrix(POLY2, [[parse_poly2(s) for s in row] for row in rows])


def test_symbolic_small_orders_match_figures():
    assert generalized.k_general_symbolic(2) == poly_matrix(GENERAL_2)
    assert generalized.k_general_symbolic(3) == poly_matrix(GENERAL_3)
    k3 = generalized.k_general_symbolic(3)
    assert k3[2, 1] == parse_poly2("a^2+2ab")


def test_symbolic_edge_columns():
    # column 0 is C(n,p) a^p, column n is C(n,p) b^p
    from math import comb
    for n in range(9):
        k = generalized.k_general_symbolic(n)
        for p in range(n + 1):
            assert k[p, 0].terms == {(p, 0): comb(n, p)}
            assert k[p, n].terms == {(0, p): comb(n, p)}


def test_specialization_recovers_classical():
    for n in range(9):
        symbolic = generalized.k_general_symbolic(n)
        assert generalized.specialize(symbolic, 1, -1) == core.k_binsum(n).mat
    # a non-classical specialization still satisfies the generating function
    k = generalized.k_general(3, 2, 5)
    assert k.col(0) == [1, 6, 12, 8]       # (1+2t)^3
    assert k.col(3) == [1, 15, 75, 125]    # (1+5t)^3


def test_alpha_beta_must_share_a_ring():
    with pytest.raises(ValueError):
        generalized.k_general(2, 1, ALPHA)


@pytest.mark.parametrize("n", range(1, 7))
def test_cross_identities_symbolic(n):
    assert generalized.general_cross_check(n)


def test_cross_identity_example():
    k2 = generalized.k_general_symbolic(2)
    k3 = generalized.k_general_symbolic(3)
    assert ALPHA * k2[0, 0] + k2[1, 0] == k3[1, 0] == parse_poly2("3a")


@pytest.mark.parametrize("n", range(1, 7))
def test_trace_identity_symbolic(n):
    assert generalized.trace_identity_check(n)


def test_trace_identity_classical_block():
    k4 = core.k_genfunc(4).mat
    x, y = k4[1, 1], k4[1, 2]
    z, t = k4[2, 1], k4[2, 2]
    assert -1 * x + z == 1 * y + t  # -2 = -2
    for n in range(1, 13):
        assert generalized.trace_identity_check(n, 1, -1)


def test_phase_tables_quarter_turn():
    for n, table in PHASE_I.items():
        assert generalized.k_phase(n, math.pi / 2) == Matrix(GAUSS, table)


def test_phase_special_points():
    for n in range(11):
        assert generalized.phase_coherence_check(n)  # phi = pi is classical
    k0 = generalized.k_phase(3, 0.0)
    binom = generalized.k_general(3, Gaussian(1), Gaussian(1))
    assert k0 == binom  # both factors (1+t): the all-binomial matrix
    assert k0.ring.name == "gaussian"
    k_neg = generalized.k_phase(2, -math.pi / 2)
    assert k_neg[1, 1] == Gaussian(1, -1)


def test_phase_generic_is_complex_float():
    k = generalized.k_phase(2, 1.0)
    assert k.ring.name == "complex"
    assert abs(k[1, 1] - (1 + complex(math.cos(1), math.sin(1)))) < 1e-9


def test_generic_phase_at_high_order_matches_the_binomial_sum():
    # entry (p, q) = sum_k C(q, k) beta^k C(n-q, p-k), within 1e-9 C(n, p)
    n, phi = 48, 0.7
    beta = cmath.exp(1j * phi)
    k = generalized.k_phase(n, phi)
    assert k.ring.name == "complex"
    for p in range(n + 1):
        for q in range(n + 1):
            ref = sum(comb(q, j) * beta ** j * comb(n - q, p - j)
                      for j in range(max(0, p - (n - q)), min(p, q) + 1))
            assert abs(k[p, q] - ref) <= 1e-9 * comb(n, p), (p, q)


def test_snake_coordinates_columns():
    def column(n, q):
        return generalized.snake_coordinates(
            generalized.k_phase(n, math.pi / 2), q)

    assert column(3, 3) == [(1, 0), (0, 3), (-3, 0), (0, -1)]
    assert column(2, 1) == [(1, 0), (1, 1), (0, 1)]
    assert column(1, 1) == [(1, 0), (0, 1)]
    # q = 0 is allowed but degenerate: all-real binomial column
    flat = column(4, 0)
    assert all(im == 0 for _, im in flat)
    with pytest.raises(ValueError):
        column(3, 4)


def test_snake_csv_and_svg():
    csv = generalized.snake_csv(generalized.k_phase(3, math.pi / 2), 3)
    lines = csv.strip().splitlines()
    assert len(lines) == 4
    assert lines[0] == "1.0,0.0"
    k5 = generalized.k_phase(5, math.pi / 2)
    svg = generalized.snake_svg(k5)
    assert svg.startswith("<svg")
    assert svg.count("<polyline") == 5
    for q in range(1, 6):
        pts = generalized.snake_coordinates(k5, q)
        assert len(pts) == 6
