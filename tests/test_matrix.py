"""Generic matrix operations, shape/ring errors, and serialization."""

import random
from fractions import Fraction

import pytest

from krawtchouk.matrix import CheckReport, Matrix, check_cells, vector_cells
from krawtchouk.rings import (CC, GAUSS, Gaussian, POLY2, Poly2, QQ, ROOT2,
                              RootTwo, ZZ)


def rand_matrix(rng, rows, cols, lo=-9, hi=9):
    return Matrix(ZZ, [[rng.randint(lo, hi) for _ in range(cols)]
                       for _ in range(rows)])


def test_identity_and_mul():
    a = Matrix(ZZ, [[1, 2], [3, 4], [5, 6]])
    assert Matrix.identity(3) @ a == a
    assert a @ Matrix.identity(2) == a


def test_mul_known_product():
    k1 = Matrix(ZZ, [[1, 1], [1, -1]])
    assert k1 @ k1 == Matrix.identity(2).scale(2)
    k3 = Matrix(ZZ, [[1, 1, 1, 1], [3, 1, -1, -3],
                     [3, -1, -1, 3], [1, -1, 1, -1]])
    assert k3 @ k3 == Matrix.identity(4).scale(8)


def test_associativity_and_transpose_random():
    rng = random.Random(7)
    for _ in range(25):
        a = rand_matrix(rng, 3, 3)
        b = rand_matrix(rng, 3, 3)
        c = rand_matrix(rng, 3, 3)
        assert (a @ b) @ c == a @ (b @ c)
        assert (a + b).T == a.T + b.T
        assert (a @ b).T == b.T @ a.T
        assert a.T.T == a


def test_shape_and_ring_errors():
    a = Matrix(ZZ, [[1, 2]])
    b = Matrix(ZZ, [[1, 2]])
    with pytest.raises(ValueError, match="dimension mismatch"):
        a @ b
    with pytest.raises(ValueError, match="shape mismatch"):
        a + Matrix(ZZ, [[1], [2]])
    q = Matrix(QQ, [[Fraction(1), Fraction(2)]])
    with pytest.raises(ValueError, match="ring mismatch"):
        a + q
    with pytest.raises(ValueError, match="ring mismatch"):
        Matrix(ZZ, [[1]]) @ q
    with pytest.raises(ValueError, match="ragged"):
        Matrix(ZZ, [[1, 2], [3]])


def test_shape_mismatch_reports_no_cell():
    a = Matrix(ZZ, [[1, 2], [3, 4]])
    b = Matrix(ZZ, [[1, 2, 0], [3, 4, 0]])
    report = CheckReport.of_matrices(a, b, n=2, note="A = B")
    assert not report.ok and report.location is None
    assert (report.lhs, report.rhs) == ("(2, 2)", "(2, 3)")
    assert report.note == "A = B"
    with pytest.raises(ValueError, match="shape mismatch"):
        a.cells(b)
    with pytest.raises(ValueError):
        list(vector_cells([1, 2], [1, 2, 3]))


def test_check_cells_finds_the_first_mismatch_in_scan_order():
    rng = random.Random(20261018)
    a = rand_matrix(rng, 4, 5)
    vec = [rng.randint(-9, 9) for _ in range(6)]
    rows = [list(row) for row in a.data]
    rows[3][2] += 1
    rows[3][4] -= 1
    b = Matrix(ZZ, rows)
    off = [vec[0] + 1] + vec[1:]
    # the late cell of the first check wins over the early one of the second
    report = check_cells([("A = B", a.cells(b)),
                          ("v = w", vector_cells(vec, off))], n=7)
    assert not report.ok
    assert (report.note, report.n, report.location) == ("A = B", 7, (3, 2))
    assert (report.lhs, report.rhs) == (str(a[3, 2]), str(a[3, 2] + 1))
    report = check_cells([("A = A", a.cells(a)),
                          ("v = w", vector_cells(vec, off))])
    assert (report.note, report.location) == ("v = w", (0,))
    assert (report.lhs, report.rhs) == (str(vec[0]), str(vec[0] + 1))
    report = check_cells([("A = A", a.cells(a)),
                          ("v = v", vector_cells(vec, vec))], n=7)
    assert report.ok and report.n == 7 and report.location is None


def test_check_cells_keeps_the_complex_tolerance():
    a = Matrix(CC, [[1 + 2j, 0.5j], [-3 + 0j, 1e6 + 0j]])
    near = a.map(lambda z: z + 1e-12)
    assert check_cells([("near", a.cells(near))], ring=CC).ok
    assert CheckReport.of_matrices(a, near).ok
    report = CheckReport.of_matrices(a, a.map(lambda z: z + 1e-6j))
    assert not report.ok and report.location == (0, 0)
    assert (report.lhs, report.rhs) == (CC.fmt(1 + 2j), CC.fmt(1 + 2.000001j))
    assert report.lhs == "1.0+2.0i"


def test_check_cells_prints_with_the_ring():
    a, b = Poly2.gen_a(), Poly2.gen_b()
    lhs, rhs = a * a + b * 3, (a + b) * a
    report = check_cells([("poly", [(None, lhs, rhs)])], n=2, ring=POLY2)
    assert not report.ok and report.location is None
    assert (report.lhs, report.rhs) == (POLY2.fmt(lhs), POLY2.fmt(rhs))
    assert report.lhs == "a^2+3b"


def test_kron_basics():
    h = Matrix(ZZ, [[1, 1], [1, -1]])
    h2 = h.kron(h)
    assert h2 == Matrix(ZZ, [[1, 1, 1, 1], [1, -1, 1, -1],
                             [1, 1, -1, -1], [1, -1, -1, 1]])
    one = Matrix(ZZ, [[1]])
    a = Matrix(ZZ, [[2, 3], [4, 5]])
    assert a.kron(one) == a
    assert one.kron(a) == a
    h3 = h2.kron(h)
    assert h3.shape == (8, 8)
    # mixed-product property on a small case
    b = Matrix(ZZ, [[0, 1], [1, 0]])
    assert (a @ b).kron(h @ b) == a.kron(h) @ b.kron(b)


def test_diag_skewdiag():
    d = Matrix.diag([3, 1, -1, -3])
    assert [d[i, i] for i in range(4)] == [3, 1, -1, -3]
    s = Matrix.skewdiag([8, 4, 2, 1])
    assert s[0, 3] == 8 and s[1, 2] == 4 and s[2, 1] == 2 and s[3, 0] == 1
    assert s[0, 0] == 0


def test_vector_products():
    k3 = Matrix(ZZ, [[1, 1, 1, 1], [3, 1, -1, -3],
                     [3, -1, -1, 3], [1, -1, 1, -1]])
    assert k3.mul_vector([1, 0, 1, 0]) == [2, 2, 2, 2]
    assert k3.vector_mul([8, 4, 2, 1]) == [27, 9, 3, 1]
    with pytest.raises(ValueError):
        k3.mul_vector([1, 2])


def test_det_rational_and_root2():
    m = Matrix(QQ, [[Fraction(2), Fraction(1)], [Fraction(7), Fraction(4)]])
    assert m.det() == Fraction(1)
    x = Matrix(ROOT2, [[RootTwo(0, 1), RootTwo(1)],
                       [RootTwo(1), RootTwo(0, 1)]])
    assert x.det() == RootTwo(1)  # 2 - 1
    singular = Matrix(QQ, [[Fraction(1), Fraction(2)],
                           [Fraction(2), Fraction(4)]])
    assert singular.det() == Fraction(0)


def test_json_round_trip_all_rings():
    mats = [
        Matrix(ZZ, [[1, -2], [3, 4]]),
        Matrix(QQ, [[Fraction(1, 3), Fraction(-2)], [Fraction(0), Fraction(7, 2)]]),
        Matrix(GAUSS, [[Gaussian(1, 2), Gaussian(0, -1)],
                       [Gaussian(-3), Gaussian(0)]]),
        Matrix(ROOT2, [[RootTwo(1, 2), RootTwo(0, -1)],
                       [RootTwo(Fraction(1, 2)), RootTwo(0)]]),
    ]
    for mat in mats:
        assert Matrix.from_json(mat.to_json()) == mat


def test_csv_round_trip():
    m = Matrix(ZZ, [[1, -2, 3], [0, 5, -6]])
    assert Matrix.from_csv(m.to_csv()) == m
    assert m.to_csv() == "1,-2,3\n0,5,-6\n"


def test_trace():
    assert Matrix.diag([3, 1, -1, -3]).trace() == 0
    with pytest.raises(ValueError):
        Matrix(ZZ, [[1, 2, 3], [4, 5, 6]]).trace()


# -- products against a naive triple loop -----------------------------------

RANDOM_SCALARS = {
    ZZ: lambda rng: rng.randint(-5, 5),
    QQ: lambda rng: Fraction(rng.randint(-5, 5), rng.randint(1, 4)),
    GAUSS: lambda rng: Gaussian(rng.randint(-3, 3), rng.randint(-3, 3)),
    ROOT2: lambda rng: RootTwo(Fraction(rng.randint(-3, 3), 2),
                               rng.randint(-3, 3)),
    POLY2: lambda rng: Poly2({(rng.randint(0, 2), rng.randint(0, 2)):
                              rng.randint(-3, 3) for _ in range(2)}),
}

# which cells of a rows x cols factor may be nonzero
PATTERNS = {
    "dense": lambda i, j, r, c: True,
    "diagonal": lambda i, j, r, c: i == j,
    "tridiagonal": lambda i, j, r, c: abs(i - j) <= 1,
    "skew-diagonal": lambda i, j, r, c: i + j == c - 1,
    "zero-row": lambda i, j, r, c: i != r // 2,
    "zero-column": lambda i, j, r, c: j != c // 2,
}

SHAPES = [(1, 1, 1), (4, 4, 4), (2, 5, 3), (5, 3, 1), (1, 4, 2), (3, 1, 4)]


def patterned(rng, ring, pattern, rows, cols):
    scalar = RANDOM_SCALARS[ring]
    return Matrix(ring, [[scalar(rng) if pattern(i, j, rows, cols)
                          else ring.zero for j in range(cols)]
                         for i in range(rows)])


def naive_product(a, b):
    out = []
    for i in range(a.rows):
        row = []
        for j in range(b.cols):
            total = a.ring.zero
            for k in range(a.cols):
                total = total + a[i, k] * b[k, j]
            row.append(total)
        out.append(row)
    return Matrix(a.ring, out)


@pytest.mark.parametrize("ring", list(RANDOM_SCALARS), ids=lambda r: r.name)
def test_mul_matches_naive_triple_loop(ring):
    rng = random.Random(2024)
    zero_type = type(ring.zero)
    for rows, inner, cols in SHAPES:
        for a_pattern in PATTERNS.values():
            for b_pattern in PATTERNS.values():
                a = patterned(rng, ring, a_pattern, rows, inner)
                b = patterned(rng, ring, b_pattern, inner, cols)
                product = a @ b
                assert product.shape == (rows, cols)
                assert product == naive_product(a, b)
                # empty cells too: a Fraction zero in QQ, a RootTwo in ROOT2
                assert all(type(x) is zero_type
                           for row in product.data for x in row)


def test_mul_skips_only_exact_zeros_in_cc():
    # CC's eq calls 1e-12 zero; the product must still count it
    tiny = Matrix(CC, [[1e-12 + 0j, 0j]])
    big = Matrix(CC, [[1e12 + 0j], [5 + 0j]])
    assert (tiny @ big)[0, 0] == 1 + 0j
