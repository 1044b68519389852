"""Generic matrix operations, shape/ring errors, and serialization."""

import random
from fractions import Fraction
from itertools import product

import pytest

from krawtchouk import core, matrix, spectral, sympow
from krawtchouk.matrix import Matrix, check_cells, vector_cells
from krawtchouk.rings import (ALPHA, BETA, CC, GAUSS, Gaussian, POLY2, Poly2,
                              QQ, RINGS, ROOT2, RootTwo, ZZ)


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
    # two shapes or lengths that differ are one unlocated cell, which fails
    assert list(a.cells(b)) == [(None, (2, 2), (2, 3))]
    assert list(vector_cells([1, 2], [1, 2, 3])) == [(None, 2, 3)]
    report = check_cells([("A = A", a.cells(a)), ("A = B", a.cells(b))], n=2)
    assert not report.ok and report.location is None
    assert (report.lhs, report.rhs) == ("(2, 2)", "(2, 3)")
    assert (report.note, report.n) == ("A = B", 2)
    report = check_cells([("v = w", vector_cells([1, 2], [1, 2, 3]))])
    assert (report.ok, report.location, report.lhs, report.rhs) == (
        False, None, "2", "3")


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


def test_check_cells_compares_complex_floats_exactly():
    a = Matrix(CC, [[1 + 2j, 0.5j], [-3 + 0j, 1e6 + 0j]])
    assert check_cells([("same", a.cells(Matrix.from_json(a.to_json())))]).ok
    for offset in (1e-12, 1e-6j):
        near = a.map(lambda z: z + offset)
        assert a != near
        report = check_cells([("near", a.cells(near))])
        assert not report.ok and report.location == (0, 0)
        assert (report.note, report.lhs) == ("near", str(1 + 2j))
        assert report.rhs == str(1 + 2j + offset)


def test_a_complex_nan_compared_with_itself_fails_at_its_cell():
    # tuple equality takes the one NaN object as equal to itself, so equal
    # complex data must still be scanned with !=
    a = Matrix(CC, [[1 + 0j, 2j], [complex("nan"), 1 + 0j]])
    assert a.data == a.data
    report = check_cells([("A = A", a.cells(a))])
    assert not report.ok and report.location == (1, 0)
    assert (report.lhs, report.rhs) == (str(a[1, 0]), str(a[1, 0]))


@pytest.mark.parametrize("ring", [r for r in RINGS.values() if r is not CC],
                         ids=lambda ring: ring.name)
def test_equal_matrices_over_an_exact_ring_pass_without_a_scan(ring):
    a = Matrix.identity(3, ring).add(Matrix(ring, [[ring.one] * 3] * 3))
    b = Matrix.from_json(a.to_json())  # equal entries, distinct objects
    assert list(a.cells(b)) == []
    report = check_cells([("A = B", a.cells(b))], n=3)
    assert report.ok and report.n == 3
    c = Matrix(ring, [[x + ring.one if (i, j) == (2, 1) else x
                       for j, x in enumerate(row)]
                      for i, row in enumerate(b.data)])
    report = check_cells([("A = C", a.cells(c))])
    assert not report.ok and report.location == (2, 1)


@pytest.mark.parametrize("ring", RINGS.values(), ids=lambda ring: ring.name)
def test_equal_matrices_hash_equal(ring):
    eye = Matrix.identity(2, ring)
    mats = [eye, Matrix.from_json(eye.to_json()),
            Matrix(ring, [[1, 0], [0, 1]]), eye.scale(2),
            Matrix.zeros(2, 2, ring)]
    if ring is CC:
        mats.append(eye.map(lambda z: z + 1e-12))
    assert mats[0] == mats[1] == mats[2] != mats[3]
    for a, b in product(mats, repeat=2):
        assert a != b or hash(a) == hash(b), (a.data, b.data)


def test_check_cells_prints_with_the_ring():
    a, b = ALPHA, BETA
    lhs, rhs = a * a + b * 3, (a + b) * a
    report = check_cells([("poly", [(None, lhs, rhs)])], n=2)
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


# one element of each ring that is neither zero nor one
SAMPLES = {"integer": 2, "rational": Fraction(1, 2), "gaussian": Gaussian(1, 2),
           "root2": RootTwo(1, 1), "poly2": ALPHA, "complex": 1 + 2j}


@pytest.mark.parametrize("ring", list(RINGS.values()), ids=lambda r: r.name)
def test_int_factors_keep_the_ring_element_type(ring):
    # every ring element, and complex, multiplies by a Python int directly
    x = SAMPLES[ring.name]
    a = Matrix(ring, [[x, ring.zero], [ring.one, x + ring.one]])
    scaled = a.scale(3)
    assert scaled.data == tuple(tuple(y + y + y for y in row)
                                for row in a.data)
    algebra = sympow.sym_algebra_power(a, 3)
    for mat in (scaled, algebra):
        assert all(type(y) is type(ring.one) for row in mat.data for y in row)


def test_csv_round_trip():
    m = Matrix(ZZ, [[1, -2, 3], [0, 5, -6]])
    assert Matrix.from_csv(m.to_csv()) == m
    assert m.to_csv() == "1,-2,3\n0,5,-6\n"


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
    # 1e-12 is not zero; the sparsity index must count it
    tiny = Matrix(CC, [[1e-12 + 0j, 0j]])
    big = Matrix(CC, [[1e12 + 0j], [5 + 0j]])
    assert (tiny @ big)[0, 0] == 1 + 0j


def integer_pairs(rng):
    """(name, A, B) integer factors of every density class and shape."""
    def fill(rows, cols, share, lo=-9, hi=9):
        cells = [(i, j) for i in range(rows) for j in range(cols)]
        keep = set(rng.sample(cells, round(share * len(cells))))
        return Matrix(ZZ, [[(rng.randint(lo, hi) or 1) if (i, j) in keep
                            else 0 for j in range(cols)]
                           for i in range(rows)])

    big = 10 ** 30
    yield "dense", fill(6, 6, 1), fill(6, 6, 1)
    yield "half-dense", fill(6, 6, 0.5), fill(6, 6, 0.5)
    yield "sparse", fill(6, 6, 0.2), fill(6, 6, 0.2)
    yield "dense x sparse", fill(6, 6, 1), fill(6, 6, 0.2)
    yield "sparse x dense", fill(6, 6, 0.2), fill(6, 6, 1)
    yield "1x1", fill(1, 1, 1), fill(1, 1, 1)
    yield "non-square", fill(3, 7, 1), fill(7, 2, 0.75)
    yield "row times column", fill(1, 5, 1), fill(5, 1, 1)
    yield "column times row", fill(5, 1, 1), fill(1, 5, 1)
    yield "all-zero", Matrix.zeros(4, 3), fill(3, 4, 1)
    yield "times all-zero", fill(4, 3, 1), Matrix.zeros(3, 4)
    yield "10^30", fill(5, 4, 1, -big, big), fill(4, 6, 1, -big, big)
    yield "+-10^30 extremes", Matrix(ZZ, [[big, -big], [-big, big]]), \
        Matrix(ZZ, [[big, big], [-big, big]])
    # the shapes of the identity checks, which pack the columns of A
    # when that takes fewer multiply-adds than packing the rows of B
    values = [rng.randint(-9, 9) or 1 for _ in range(7)]
    yield "times diagonal", fill(7, 7, 1), Matrix.diag(values)
    yield "times skew", fill(7, 7, 1), Matrix.skewdiag(values)
    yield "diagonal times", Matrix.diag(values), fill(7, 7, 1)
    yield "tridiagonal times", Matrix(ZZ, [
        [x if abs(i - j) <= 1 else 0 for j, x in enumerate(row)]
        for i, row in enumerate(fill(7, 7, 1).data)]), fill(7, 7, 1)
    yield "times upper-triangular", fill(7, 7, 1), Matrix(ZZ, [
        [x if i <= j else 0 for j, x in enumerate(row)]
        for i, row in enumerate(fill(7, 7, 1).data)])
    # 2 lanes of columns of A instead of 7 lanes of rows of B
    yield "2x9 times sparse 9x7", fill(2, 9, 1), fill(9, 7, 0.15)
    yield "sparse 9x2 times 2x7", fill(9, 2, 0.5), fill(2, 7, 1)
    yield "10^30 times skew", fill(5, 5, 1, -big, big), \
        Matrix.skewdiag([big, -big, 1, big, -1])


@pytest.mark.parametrize("seed", range(4))
def test_integer_products_match_rational_products(seed):
    # QQ never packs, so it is the generic sparsity-indexed product
    rng = random.Random(3100 + seed)
    for name, a, b in integer_pairs(rng):
        product = a @ b
        assert all(type(x) is int for row in product.data for x in row), name
        assert product.map(Fraction, QQ) == \
            a.map(Fraction, QQ) @ b.map(Fraction, QQ), name
        assert product == naive_product(a, b), name


def test_every_integer_product_is_packed(monkeypatch):
    calls = []
    packed_mul = Matrix._packed_mul

    def spy(self, other):
        calls.append((self.shape, other.shape))
        return packed_mul(self, other)

    monkeypatch.setattr(Matrix, "_packed_mul", spy)
    half = Matrix(ZZ, [[1, 0], [0, 1]])       # two of four entries nonzero
    third = Matrix(ZZ, [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    full = Matrix(ZZ, [[1, 2, 3], [4, 5, 6], [7, 8, 9]])
    tridiagonal = Matrix(ZZ, [[2, -1, 0], [-1, 2, -1], [0, -1, 2]])
    wide = Matrix(ZZ, [[1, 0, 2], [0, 3, 0]])
    zero = Matrix.zeros(3, 3)
    products = [(half, half), (full, third), (third, full),
                (zero, full), (full, zero), (wide, full),
                (tridiagonal, full), (full, tridiagonal)]
    for a, b in products:
        assert a @ b == naive_product(a, b)
    assert calls == [(a.shape, b.shape) for a, b in products]
    for ring in (QQ, GAUSS):
        a = full.map(ring.one.__mul__, ring)
        b = tridiagonal.map(ring.one.__mul__, ring)
        assert a @ b == naive_product(a, b)
    assert len(calls) == len(products)


def spy_packed_rows(monkeypatch):
    """The rows that integer products pack, listed as ``matrix.Lanes``
    packs them."""
    packed = []

    class Spy(matrix.Lanes):
        __slots__ = ()

        def pack(self, values):
            packed.append(tuple(values))
            return super().pack(values)

    monkeypatch.setattr(matrix, "Lanes", Spy)
    return packed


def test_a_product_packs_the_factor_with_fewer_multiply_adds(monkeypatch):
    packed = spy_packed_rows(monkeypatch)

    def packed_rows(a, b):
        packed.clear()
        assert a @ b == naive_product(a, b)
        return packed

    n = 12
    k = core.k_reference(n)
    b = spectral.binomial_matrix(n)
    # K Lambda, B D and M K: a diagonal, skew or tridiagonal factor scales
    # at most rows(a) + rows(b) rows, which are added as plain lists
    assert packed_rows(k, core.lambda_matrix(n)) == []
    assert packed_rows(b, spectral.skew_power_matrix(n)) == []
    assert packed_rows(core.kac_matrix(n), k) == []
    # K K: the rows of K, since a tie keeps the rows of the right factor
    assert packed_rows(k, k) == list(k.data)
    # a wide right factor with 2 nonzeros a row: 2 lanes of columns of A,
    # not 7 of rows of B, and its 18 nonzeros are more than 7 + 9 rows
    wide = Matrix(ZZ, [list(range(1, 10)), list(range(9, 0, -1))])
    sparse = Matrix(ZZ, [[i + 1 if j in (i % 7, (i + 3) % 7) else 0
                          for j in range(7)] for i in range(9)])
    assert packed_rows(wide, sparse) == list(zip(*wide.data))


def edge_factors(rng, rows, cols, nonzeros):
    """A factor with ``nonzeros`` entries of size up to 10^30 at random
    positions, and zeros elsewhere."""
    big = 10 ** 30
    cells = set(rng.sample(range(rows * cols), nonzeros))
    return Matrix(ZZ, [[(rng.randint(-big, big) or big)
                        if i * cols + j in cells else 0 for j in range(cols)]
                       for i in range(rows)])


@pytest.mark.parametrize("delta", [-1, 0, 1])
def test_plain_rows_up_to_rows_a_plus_rows_b_nonzeros(monkeypatch, delta):
    # a product scales rows(a) + rows(b) or fewer rows as plain lists and
    # packs above that, in either orientation
    packed = spy_packed_rows(monkeypatch)
    rng = random.Random(3131 + delta)
    # the rows of B: a = A (3 rows) scales b = B (5 rows)
    rows_of_b = (edge_factors(rng, 3, 5, 3 + 5 + delta),
                 edge_factors(rng, 5, 4, 20))
    # the columns of A: a = B^T (4 rows) scales b = A^T (5 rows)
    cols_of_a = (edge_factors(rng, 3, 5, 15),
                 edge_factors(rng, 5, 4, 4 + 5 + delta))
    for (a, b), lanes in ((rows_of_b, 4), (cols_of_a, 3)):
        packed.clear()
        product = a @ b
        assert product == naive_product(a, b)
        assert all(type(x) is int for row in product.data for x in row)
        assert [len(row) for row in packed] == ([lanes] * 5 if delta > 0
                                                else [])


def test_an_all_zero_factor_packs_no_lanes(monkeypatch):
    def no_lanes(bits, count):
        raise AssertionError(f"packed {count} lanes of {bits} bits")

    monkeypatch.setattr(matrix, "Lanes", no_lanes)
    full = Matrix(ZZ, [[1, 2, 3], [4, 5, 6], [7, 8, 9], [1, 0, 1]])
    for a, b in [(Matrix.zeros(4, 4), full), (full, Matrix.zeros(3, 5)),
                 (Matrix.zeros(2, 4), Matrix.zeros(4, 3))]:
        product = a @ b
        assert product == Matrix.zeros(a.rows, b.cols)
        assert all(type(x) is int for row in product.data for x in row)


def test_packed_product_asserts_its_lanes_hold(monkeypatch):
    # 9 nonzeros in A are more than 3 + 3 rows, so the rows of B pack;
    # every entry of A B is 21, the bound (row abs-sum 3) x (max |b| 7)
    a = Matrix(ZZ, [[1, 1, 1]] * 3)
    b = Matrix(ZZ, [[7, 7, 7]] * 3)
    assert a @ b == Matrix(ZZ, [[21, 21, 21]] * 3)
    monkeypatch.setattr(matrix, "lane_bits", lambda bound: bound.bit_length())
    with pytest.raises(AssertionError, match="overflowed"):
        a @ b
