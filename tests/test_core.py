"""Constructions and identities of the classical Krawtchouk family."""

import random
import sys
from fractions import Fraction
from math import comb

import pytest

from krawtchouk import (cli, core, hadamard, pathsum, quaternion, spectral,
                        sympow, verify)
from krawtchouk.matrix import Matrix, check_cells
from krawtchouk.rings import ZZ

from tables import KRAWTCHOUK, SYMMETRIC


@pytest.mark.parametrize("n", sorted(KRAWTCHOUK))
def test_genfunc_reproduces_published_tables(n):
    assert core.k_genfunc(n).mat == Matrix(ZZ, KRAWTCHOUK[n])


@pytest.mark.parametrize("n", range(15))
def test_genfunc_equals_binsum(n):
    assert core.k_genfunc(n) == core.k_binsum(n)


@pytest.mark.parametrize("n", range(41))
def test_genfunc_columns_are_the_single_column_expansions(n):
    table = core.k_genfunc(n).mat
    assert [table.col(q) for q in range(n + 1)] == [
        core.genfunc_column(n, q) for q in range(n + 1)]


@pytest.mark.parametrize("n", [0, 1, 6])
def test_tagged_matrices_hash_as_they_compare(n):
    # the method tag is ignored by == and so must be by hash
    tagged = [core.k_genfunc(n), core.k_binsum(n), hadamard.k_pyramid(n),
              pathsum.k_pathsum(n)]
    assert [km.method for km in tagged] == list(core.METHODS)
    assert len(set(tagged)) == 1
    for km in tagged:
        assert km == km.mat and not km != km.mat and not km.mat != km
        assert hash(km) == hash(km.mat)
    assert core.k_genfunc(n) != core.k_genfunc(n + 1)


@pytest.mark.parametrize("n", [96, 192])
def test_genfunc_equals_binsum_at_high_order(n):
    assert core.k_genfunc(n) == core.k_binsum(n)


def test_genfunc_sweep_asserts_exact_division():
    # (1+t)(1-t) = 1 - t^2 steps to (1-t)^2 = 1 - 2t + t^2
    assert core._next_genfunc_column([1, 0, -1]) == [1, -2, 1]
    with pytest.raises(AssertionError, match="divide"):
        core._next_genfunc_column([1, 2])   # 1 + 2t leaves remainder 1


def test_single_entries():
    assert core.k_entry(3, 1, 2) == -1
    assert core.k_entry(4, 2, 2) == -2
    assert core.k_entry(6, 3, 3) == 0
    assert core.k_entry(7, 3, 2) == -5
    for n in range(8):
        for p in range(n + 1):
            assert core.k_entry(n, 0, p) == 1       # all-ones top row
            assert core.k_entry(n, p, 0) == comb(n, p)
    with pytest.raises(ValueError):
        core.k_entry(3, 4, 0)
    with pytest.raises(ValueError):
        core.k_entry(3, 0, -1)


def test_row_one_of_order_five():
    assert core.k_genfunc(5).mat.row(1) == [5, 3, 1, -1, -3, -5]


def test_kac_matrix_structure():
    m3 = core.kac_matrix(3)
    assert m3 == Matrix(ZZ, [[0, 1, 0, 0], [3, 0, 2, 0],
                             [0, 2, 0, 3], [0, 0, 1, 0]])
    assert core.kac_matrix(1) == Matrix(ZZ, [[0, 1], [1, 0]])
    for n in (2, 5, 9):
        m = core.kac_matrix(n)
        for j in range(n + 1):
            assert sum(m.col(j)) == n
        assert sum(m[i, i] for i in range(n + 1)) == 0


def test_lambda_matrix():
    assert core.lambda_matrix(3) == Matrix.diag([3, 1, -1, -3])
    assert core.lambda_matrix(0) == Matrix(ZZ, [[0]])
    for n in range(9):
        lam = core.lambda_matrix(n)
        assert sum(lam[i, i] for i in range(n + 1)) == 0


@pytest.mark.parametrize("n", range(1, 13))
def test_master_equation(n):
    assert core.master_check(n)


@pytest.mark.parametrize("n", range(13))
def test_involution(n):
    assert core.involution_check(n)


def test_symmetric_matrices_match_tables():
    for n, table in SYMMETRIC.items():
        assert core.k_symmetric(n) == Matrix(ZZ, table)
    assert core.k_symmetric(5)[2, 2] == -20
    for n in range(9):
        s = core.k_symmetric(n)
        assert s == s.T


@pytest.mark.parametrize("n", range(1, 13))
def test_orthogonality(n):
    assert core.ortho_check(n)


def test_gamma_matrices():
    g4 = core.gamma_matrix(4)
    assert g4 == Matrix.diag([1, 4, 6, 4, 1])
    assert core.gamma_inverse(4) == Matrix.diag(
        [Fraction(1), Fraction(1, 4), Fraction(1, 6), Fraction(1, 4),
         Fraction(1)])
    for n in range(9):
        g = core.gamma_matrix(n)
        for i in range(n + 1):
            assert g[i, i] > 0
            assert g[i, i] == g[n - i, n - i]  # palindromic
        gi = core.gamma_inverse(n)
        prod = g.map(Fraction, core.QQ) @ gi
        assert prod == Matrix.identity(n + 1, core.QQ)


def test_binomial_inner_products():
    # columns of K under the inverse-binomial weights
    k3 = core.k_genfunc(3).mat
    def dot(i, j):
        return sum(Fraction(1, comb(3, r)) * k3[r, i] * k3[r, j]
                   for r in range(4))
    assert dot(1, 1) == Fraction(8, 3)
    assert dot(0, 2) == 0
    k4 = core.k_genfunc(4).mat
    row2 = k4.row(2)
    assert sum(comb(4, i) * row2[i] ** 2 for i in range(5)) == 96


def test_duality_rows_against_columns():
    for n in range(1, 9):
        k = core.k_genfunc(n).mat
        for i in range(n + 1):
            for j in range(n + 1):
                value = sum(k[i, q] * k[q, j] for q in range(n + 1))
                assert value == (2 ** n if i == j else 0)


def test_covector_transform_exponentials():
    assert core.covector_transform(3, [8, 4, 2, 1]) == [27, 9, 3, 1]
    assert core.covector_transform(3, [27, 9, 3, 1]) == [64, 32, 16, 8]
    assert core.covector_transform(2, [16, 4, 1]) == [25, 15, 9]
    # the general exponential law: [a^(n-i)] K = [(a+1)^(n-q) (a-1)^q]
    for n in range(1, 13):
        for a in (2, 3, 5):
            row = [a ** (n - i) for i in range(n + 1)]
            image = core.covector_transform(n, row)
            assert image == [(a + 1) ** (n - q) * (a - 1) ** q
                             for q in range(n + 1)]
    with pytest.raises(ValueError):
        core.covector_transform(3, [1, 2])


def test_column_sums():
    for n in range(1, 15):
        k = core.k_genfunc(n).mat
        sums = [sum(k.col(q)) for q in range(n + 1)]
        assert sums[0] == 2 ** n
        assert all(s == 0 for s in sums[1:])


@pytest.mark.parametrize("n", range(1, 15))
def test_reversal_symmetries(n):
    assert core.symmetry_identities_check(n)


def test_first_row_and_column_forced():
    for n in range(10):
        k = core.k_genfunc(n).mat
        assert k.row(0) == [1] * (n + 1)
        assert k.col(0) == [comb(n, p) for p in range(n + 1)]


def test_master_check_reports_failure_location():
    report = core.master_check(3)
    assert report.ok and report.location is None
    # a deliberately broken comparison must carry the first bad index
    a = Matrix(ZZ, [[1, 2], [3, 4]])
    b = Matrix(ZZ, [[1, 2], [0, 4]])
    bad = check_cells([("A = B", a.cells(b))])
    assert not bad.ok and bad.location == (1, 0)
    assert bad.lhs == "3" and bad.rhs == "0"


# -- the memoised reference ------------------------------------------------

@pytest.fixture
def corrupted_reference(monkeypatch):
    """k_reference with K[2, 1] off by one (orders >= 2), in every module."""
    real = core.k_reference
    real.cache_clear()

    def corrupted(n):
        if n < 2:
            return real(n)
        rows = [list(row) for row in real(n).data]
        rows[2][1] += 1
        return Matrix(ZZ, rows)

    for name, module in list(sys.modules.items()):
        if name.startswith("krawtchouk") and hasattr(module, "k_reference"):
            monkeypatch.setattr(module, "k_reference", corrupted)
    yield
    real.cache_clear()


def test_checks_fail_on_a_corrupted_reference(corrupted_reference):
    # K^(4) has row 1 = [4, 2, 0, -2, -4] and row 2 = [6, 0, -2, 0, 6]
    report = core.involution_check(4)
    assert not report.ok
    assert (report.location, report.lhs, report.rhs) == ((0, 1), "1", "0")
    report = core.master_check(4)     # (M K)[1,1] gains M[1,2] = 2
    assert not report.ok
    assert (report.location, report.lhs, report.rhs) == ((1, 1), "6", "4")
    report = core.ortho_check(4)      # (G K^T)[1,2] = C(4,1) * 1
    assert not report.ok and report.note == "G K^T = K G"
    assert (report.location, report.lhs, report.rhs) == ((1, 2), "4", "0")


def test_suite_failures_name_check_cell_and_sides(corrupted_reference):
    reports = verify.run_suites(["all"], n_max=4)
    assert {r.suite for r in reports if not r.ok} == {
        "construction-equivalence", "cross", "hadamard-reduction",
        "involution", "macwilliams", "master", "ortho", "phase", "pyramid",
        "spectral", "sympow"}
    for report in reports:
        keys = [(f["check"], f["n"]) for f in report.failures]
        assert len(keys) == len(set(keys)), report.suite
        for failure in report.failures:
            assert set(failure) == {"n", "check", "location", "lhs", "rhs"}
            assert isinstance(failure["check"], str) and failure["check"]
            location = failure["location"]
            assert isinstance(location, list) and location
            assert all(type(i) is int for i in location)
            assert failure["lhs"] and failure["rhs"]
            assert failure["lhs"] != failure["rhs"]
    ortho = next(r for r in reports if r.suite == "ortho")
    assert ortho.failures[-1] == {"n": 4, "check": "G K^T = K G",
                                  "location": [1, 2], "lhs": "4", "rhs": "0"}


def test_binomial_transform_failure_names_a_cell_of_k_b(corrupted_reference):
    # column 1 of K B is K b^(1); row 2 reads K[2,0] + K[2,1] = 6 + 1
    report = spectral.binomial_transform_check(4)
    assert not report.ok and report.note == "K B = B D"
    assert (report.location, report.lhs, report.rhs) == ((2, 1), "7", "6")


def test_quaternion_suite_names_the_cell_of_the_2x2_image(monkeypatch):
    real = quaternion.to_matrix2

    def corrupted(q):
        image = real(q)
        if q != quaternion.G:
            return image
        rows = [list(row) for row in image.data]
        rows[1][1] += 1                    # G -> [[1, 0], [0, 0]]
        return Matrix(image.ring, rows)

    monkeypatch.setattr(quaternion, "to_matrix2", corrupted)
    report, = verify.run_suites(["quaternion"], n_max=1)
    failure = next(f for f in report.failures
                   if f["check"] == "FH = HG in 2x2 matrices")
    # F H = [[1, -1], [1, 1]] against H G = [[1, 0], [1, 0]]
    assert failure == {"n": None, "check": "FH = HG in 2x2 matrices",
                       "location": [0, 1], "lhs": "-1", "rhs": "0"}


def quaternion_failures():
    report, = verify.run_suites(["quaternion"], n_max=1)
    return {f["check"]: f for f in report.failures}


def test_basis_check_names_the_unit_pair_of_a_wrong_square(monkeypatch):
    # F^2 = -1 in the product while the 2x2 image of F still squares to I
    monkeypatch.setattr(quaternion.Quaternion, "_square", lambda self: -1)
    failures = quaternion_failures()
    # units 0..3 are 1, i, F, G: the first failing pair is (F, F), and the
    # cell is [0, 0] of image(F) image(F) = I against image(F F) = -I
    assert failures["split 2x2 homomorphism on the basis"] == {
        "n": None, "check": "split 2x2 homomorphism on the basis",
        "location": [2, 2, 0, 0], "lhs": "1", "rhs": "-1"}
    assert not any(check.startswith("hamilton") for check in failures)


def test_basis_check_finds_a_cross_term_no_unit_pair_shows(monkeypatch):
    real = quaternion.Quaternion._norm_numerator

    def crossed(self):
        _, b, c, _, _ = self._n
        return real(self) + 2 * b * c

    monkeypatch.setattr(quaternion.Quaternion, "_norm_numerator", crossed)
    # every unit pair still multiplies norms: b c = 0 on units and their
    # signed products, so a check on the units alone would pass
    for kind in (quaternion.HAMILTON, quaternion.SPLIT):
        units = verify._polarization_basis(kind)[:4]
        assert all((p * q).norm2() == p.norm2() * q.norm2()
                   for p in units for q in units)
    failures = quaternion_failures()
    for kind in ("hamilton", "split"):
        failure = failures[f"{kind} norm multiplicativity on the basis"]
        # i (1 + G) = i - F: the unit i times the polarization point 1 + G
        assert failure["location"] == [1, 6]


def test_only_the_rational_sample_sees_a_product_that_is_not_bilinear(
        monkeypatch):
    real = quaternion.Quaternion.__mul__

    def corrupted(self, other):
        product = real(self, other)
        if (isinstance(other, quaternion.Quaternion)
                and self._n[4] > 1 and other._n[4] > 1):
            return product + 1
        return product

    monkeypatch.setattr(quaternion.Quaternion, "__mul__", corrupted)
    failures = quaternion_failures()
    # every basis element has denominator 1, so the basis passes
    assert not any(check.endswith("on the basis") for check in failures)
    for kind in ("hamilton", "split"):
        t, = failures[f"{kind} norm multiplicativity at random"]["location"]
        assert 0 <= t < verify.RANDOM_QUATERNIONS


def test_constructions_never_read_the_reference(monkeypatch, capsys):
    def refuse(n):
        raise RuntimeError("construction read the reference")

    for name, module in list(sys.modules.items()):
        if name.startswith("krawtchouk") and hasattr(module, "k_reference"):
            monkeypatch.setattr(module, "k_reference", refuse)
    with pytest.raises(RuntimeError):
        spectral.binomial_transform_check(5)  # the patch reaches the checks
    n = 6
    table = core.k_genfunc(n).mat
    assert core.k_binsum(n).mat == table
    assert sympow.sym_group_power(sympow.MAT_H, n) == table
    assert hadamard.k_pyramid(n).mat == table
    assert pathsum.oracle_matrix(n) == table
    assert cli.main(["gen", "krawtchouk", "--n", str(n),
                     "--format", "json"]) == 0
    assert Matrix.from_json(capsys.readouterr().out) == table


def test_genfunc_builds_a_new_matrix_each_call():
    first, second = core.k_genfunc(5), core.k_genfunc(5)
    assert first.mat is not second.mat and first.mat == second.mat
    assert core.k_reference(5) is core.k_reference(5)
    assert first.mat is not core.k_reference(5)
    assert core.k_reference(5) == first.mat


def test_run_suites_refuses_a_negative_order(monkeypatch):
    def never(n_max, seed):
        raise AssertionError("a suite ran")

    monkeypatch.setattr(verify, "SUITES",
                        {name: never for name in verify.SUITES})
    for names in (["all"], ["master"], ["quaternion", "phase"]):
        with pytest.raises(ValueError, match="n_max"):
            verify.run_suites(names, n_max=-1)
    assert verify.run_suites([], n_max=0) == []


@pytest.mark.parametrize("seed", range(3))
def test_random_quaternions_are_the_fraction_draws(seed):
    # the suite's instances: numerator then denominator per component,
    # each the quaternion of the four Fractions in lowest terms
    rng, twin = random.Random(seed), random.Random(seed)
    for kind, make in ((quaternion.HAMILTON, quaternion.hamilton),
                       (quaternion.SPLIT, quaternion.split)):
        for _ in range(200):
            got = verify._random_quaternion(rng, kind)
            want = make(*(Fraction(twin.randint(-9, 9), twin.randint(1, 9))
                          for _ in range(4)))
            assert got == want and got._n == want._n
    assert rng.random() == twin.random()
