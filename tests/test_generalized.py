"""Ring-valued matrices, phase matrices, and snake figures."""

import cmath
import math
from fractions import Fraction
from math import comb

import pytest

from krawtchouk import cli, core, generalized, hadamard
from krawtchouk.matrix import Matrix
from krawtchouk.rings import (ALPHA, BETA, GAUSS, Gaussian, POLY2, RootTwo,
                              parse_poly2, ring_of)

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


def term_by_term(n, alpha, beta):
    """Entry (p, q) = sum over k of C(q, k) C(n-q, p-k) alpha^(p-k) beta^k."""
    ring = ring_of(alpha)
    a_pow, b_pow = [ring.one], [ring.one]
    for _ in range(n):
        a_pow.append(a_pow[-1] * alpha)
        b_pow.append(b_pow[-1] * beta)
    return Matrix(ring, [
        [sum((comb(q, k) * comb(n - q, p - k) * a_pow[p - k] * b_pow[k]
              for k in range(max(0, p - (n - q)), min(p, q) + 1)), ring.zero)
         for q in range(n + 1)] for p in range(n + 1)])


# each exact ring off the integers, with alpha = 0, beta = 0 and alpha = beta
EXACT_POINTS = {
    "rational": [(Fraction(2, 3), Fraction(-5, 7)), (Fraction(0), Fraction(3)),
                 (Fraction(2, 3), Fraction(0)),
                 (Fraction(2, 3), Fraction(2, 3))],
    "gaussian": [(Gaussian(1, 1), Gaussian(0, 1)), (Gaussian(0), Gaussian(0, 1)),
                 (Gaussian(1, 1), Gaussian(0)),
                 (Gaussian(1, 1), Gaussian(1, 1))],
    "root2": [(RootTwo(1, 1), RootTwo(Fraction(1, 2), -1)),
              (RootTwo(0), RootTwo(0, 1)), (RootTwo(1, 1), RootTwo(0)),
              (RootTwo(0, 1), RootTwo(0, 1))],
    "poly2": [(ALPHA, BETA), (POLY2.zero, BETA), (ALPHA, POLY2.zero),
              (ALPHA, ALPHA), (ALPHA + BETA, ALPHA - 2 * BETA)],
}


@pytest.mark.parametrize("ring", EXACT_POINTS)
def test_exact_rings_match_the_term_by_term_sum(ring):
    for alpha, beta in EXACT_POINTS[ring]:
        for n in range(25):
            k = generalized.k_general(n, alpha, beta)
            assert k.ring.name == ring
            assert k == term_by_term(n, alpha, beta), (alpha, beta, n)


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


def test_trace_identity_scans_cells_only_on_a_mismatch(monkeypatch):
    scans = []
    real_cells, real_k = generalized.trace_cells, generalized.k_general
    monkeypatch.setattr(generalized, "trace_cells", lambda k, a, b: (
        scans.append(k.shape) or real_cells(k, a, b)))
    assert generalized.trace_identity_check(12, 1, -1)
    assert generalized.trace_identity_check(5)
    assert hadamard.pyramid_cross_check(12)  # the classical check too
    assert scans == []
    # +2 in cell (4, 3) breaks the blocks at (3, 2), (3, 3), (4, 2), (4, 3)
    bad = [list(row) for row in real_k(7, 3, -2).data]
    bad[4][3] += 2
    monkeypatch.setattr(generalized, "k_general",
                        lambda n, alpha, beta: Matrix.from_rows(bad))
    report = generalized.trace_identity_check(7, 3, -2)
    assert scans == [(8, 8)]
    assert not report and report.location == (3, 2)
    assert report.note == "trace identity"


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
    phi = 0.7
    beta = cmath.exp(1j * phi)
    powers = [beta ** j for j in range(97)]
    for n in (16, 48, 96):
        k = generalized.k_phase(n, phi)
        assert k.ring.name == "complex"
        for p in range(n + 1):
            for q in range(n + 1):
                ref = sum(comb(q, j) * powers[j] * comb(n - q, p - j)
                          for j in range(max(0, p - (n - q)), min(p, q) + 1))
                assert abs(k[p, q] - ref) <= 1e-9 * comb(n, p), (n, p, q)


@pytest.mark.parametrize("phi", [1e17, 2.0 ** 53, 1e308, -1e308])
def test_huge_angles_are_not_quarter_turns(phi):
    # phi / (pi/2) has no fractional bits left here; e^(i phi) is generic
    beta = generalized.phase_beta(phi)
    assert beta == cmath.exp(1j * phi)
    assert min(abs(beta - unit) for unit in (1, 1j, -1, -1j)) > 0.1
    assert generalized.k_phase(2, phi).ring.name == "complex"


def test_quarter_turns_snap_to_exact_units():
    for k, unit in enumerate([Gaussian(1), Gaussian(0, 1), Gaussian(-1),
                              Gaussian(0, -1)] * 3):
        assert generalized.phase_beta(k * math.pi / 2) == unit, k
        assert generalized.phase_beta(-k * math.pi / 2) == unit.conj(), k
    assert generalized.phase_beta(1000 * math.pi) == Gaussian(1)


def test_float_quarter_turns_snap_up_to_the_rounding_boundary():
    # k pi/2 in floats carries the rounding of pi and of the product: every
    # |k| up to 5,230 snaps, and 4000 pi (k = 8000) lands 1.3e-12 from 1,
    # past the 1e-12 tolerance; cli.parse_phi keeps 'N pi' exact instead
    units = [Gaussian(1), Gaussian(0, 1), Gaussian(-1), Gaussian(0, -1)]
    for k in range(5231):
        assert generalized.phase_beta(k * math.pi / 2) == units[k % 4], k
        assert generalized.phase_beta(-k * math.pi / 2) == units[-k % 4], k
    assert isinstance(generalized.phase_beta(4000 * math.pi), complex)
    assert generalized.k_phase(2, cli.parse_phi("4000pi")).ring.name == "gaussian"


def test_cli_phase_at_a_huge_angle_is_complex(capsys):
    assert cli.main(["gen", "phase", "--n", "2", "--phi", "1e308",
                     "--format", "json"]) == 0
    mat = Matrix.from_json(capsys.readouterr().out)
    assert mat.ring.name == "complex"
    assert mat == generalized.k_phase(2, 1e308)
    assert mat[1, 1] == 1 + cmath.exp(1e308j)


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
