"""Acceptance suite: one test per numbered criterion, one printed line each.

Run with ``pytest tests/test_acceptance.py -s`` to see every line.  All
checks are exact; each criterion also enforces its stated wall-clock
budget.

Criterion 8 pins the Hadamard conjugation v -> H v H^-1 on the light-like
pair R = (F+i)/2, L = (F-i)/2 and N = R - L = i: H R H^-1 = (G-i)/2,
H L H^-1 = (G+i)/2 and H N H^-1 = -N.  H cannot flip the pair
(L -> -R, R -> -L): conjugation is linear, so Ad(R) - Ad(L) = Ad(N) = -N,
while the flipped images would give +N.  Conjugation by N itself is what
flips the pair, and it fixes N.
"""

import json
import math
import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

from krawtchouk import (
    core,
    generalized,
    gf2,
    hadamard,
    pathsum,
    quaternion,
    spectral,
    sympow,
)
from krawtchouk.matrix import CheckReport, Matrix
from krawtchouk.rings import GAUSS, QQ, ROOT2, RootTwo, ZZ, sqrt2_power

from tables import KRAWTCHOUK, PHASE_I, SYMMETRIC


class Criterion:
    """Collects sub-failures, prints the line, enforces the budget."""

    def __init__(self, number, label, budget_seconds):
        self.number = number
        self.label = label
        self.budget = budget_seconds
        self.failures = []
        self.start = time.perf_counter()

    def check(self, ok, detail):
        if not ok:
            self.failures.append(detail)

    def finish(self):
        elapsed = time.perf_counter() - self.start
        if elapsed > self.budget:
            self.failures.append(
                f"runtime {elapsed:.2f}s exceeded budget {self.budget}s")
        status = "PASS" if not self.failures else "FAIL"
        print(f"criterion {self.number:>2} ({self.label}): {status} "
              f"[{elapsed:.2f}s]")
        assert not self.failures, "; ".join(self.failures)


def test_criterion_01_table_reproduction():
    crit = Criterion(1, "published tables", 1.0)
    for n, table in KRAWTCHOUK.items():
        crit.check(core.k_genfunc(n).mat == Matrix(ZZ, table),
                   f"Krawtchouk table n={n}")
    for n, table in SYMMETRIC.items():
        crit.check(core.k_symmetric(n) == Matrix(ZZ, table),
                   f"symmetric table n={n}")
    crit.finish()


def test_criterion_02_five_way_equivalence():
    crit = Criterion(2, "five-way construction equivalence", 30.0)
    for n in range(15):
        ref = core.k_genfunc(n).mat
        crit.check(core.k_binsum(n).mat == ref, f"binomial sum n={n}")
        crit.check(sympow.sym_group_power(sympow.MAT_H, n) == ref,
                   f"tensor power n={n}")
        crit.check(hadamard.k_pyramid(n).mat == ref,
                   f"pyramid recurrence n={n}")
    for n in range(13):
        ref = core.k_genfunc(n).mat
        crit.check(pathsum.oracle_matrix(n, 1, -1) == ref,
                   f"path-sum oracle n={n}")
        twiston_ok = all(
            pathsum.twiston_energy(n, q, p) == ref[p, q]
            for p in range(n + 1) for q in range(n + 1))
        crit.check(twiston_ok, f"twiston oracle n={n}")
    crit.finish()


def test_criterion_03_master_equation():
    crit = Criterion(3, "master equation, direct and derived", 5.0)
    for n in range(1, 13):
        crit.check(bool(core.master_check(n)), f"M K = K Lambda n={n}")
        crit.check(bool(sympow.master_from_tensor_check(n)),
                   f"tensor derivation n={n}")
    crit.finish()


def test_criterion_04_involution_orthogonality():
    crit = Criterion(4, "involution and orthogonality", 5.0)
    for n in range(1, 13):
        crit.check(bool(core.involution_check(n)), f"K^2 = 2^n I n={n}")
        crit.check(bool(core.ortho_check(n)), f"orthogonality n={n}")
    crit.finish()


def test_criterion_05_spectral_suite():
    crit = Criterion(5, "spectral decomposition over Q[sqrt2]", 5.0)
    for n in range(11):
        crit.check(bool(spectral.binomial_transform_check(n)),
                   f"K B = B D n={n}")
        try:
            spectral.k_from_BDBinv(n)
        except AssertionError as exc:
            crit.check(False, str(exc))
        factors = spectral.eigen_factors(n)
        b = spectral.binomial_matrix(n).map(RootTwo, ROOT2)
        bx = b @ factors.x
        k = core.k_genfunc(n).mat.map(RootTwo, ROOT2)
        crit.check(k @ bx == bx @ factors.e, f"K(BX) = (BX)E n={n}")
        lam = sqrt2_power(n)
        signs_ok = all(
            factors.e[j, j] == (lam if 2 * j <= n else -lam)
            for j in range(n + 1))
        crit.check(signs_ok, f"eigenvalue sign split n={n}")
        e2 = factors.e @ factors.e
        crit.check(
            e2 == Matrix.identity(n + 1, ROOT2).scale(RootTwo(2 ** n)),
            f"E^2 = 2^n I n={n}")
    crit.finish()


def test_criterion_06_generalized_identities():
    crit = Criterion(6, "cross and trace identities", 10.0)
    for n in range(1, 9):
        crit.check(bool(generalized.general_cross_check(n)),
                   f"symbolic cross n={n}")
        crit.check(bool(generalized.trace_identity_check(n)),
                   f"symbolic trace n={n}")
        symbolic = generalized.k_general_symbolic(n)
        crit.check(
            generalized.specialize(symbolic, 1, -1) == core.k_binsum(n).mat,
            f"specialization n={n}")
    crit.check(bool(hadamard.pyramid_cross_check(12)),
               "classical cross identities to n=12")
    crit.finish()


def test_criterion_07_phase_tables():
    crit = Criterion(7, "quarter-turn phase tables", 1.0)
    for n, table in PHASE_I.items():
        crit.check(generalized.k_phase(n, math.pi / 2) == Matrix(GAUSS, table),
                   f"K(i) table n={n}")
    crit.finish()


def test_criterion_08_quaternion_suite():
    crit = Criterion(8, "quaternion suite", 2.0)
    qt = quaternion
    i, F, G, H = qt.I_S, qt.F, qt.G, qt.H

    # split multiplication table
    crit.check(i * i == qt.split(-1) and F * F == qt.split(1)
               and G * G == qt.split(1), "split squares")
    crit.check(i * F == G and F * G == -i and G * i == F, "split products")
    crit.check(F * i == -G and G * F == i and i * G == -F,
               "split anticommutation")
    # Hamilton multiplication table
    ih, j, k = qt.I_H, qt.J, qt.K_UNIT
    crit.check(ih * ih == j * j == k * k == qt.hamilton(-1),
               "hamilton squares")
    crit.check(ih * j == k and j * k == ih and k * ih == j,
               "hamilton products")

    crit.check(F * H == H * G == qt.split(1, -1), "F H = H G = 1 - i")
    crit.check(qt.adjoint_act(H, i) == -i, "H i H^-1 = -i")


    def image(label, g, v, want):
        got = qt.adjoint_act(g, v)
        crit.check(got == want, f"{label} (computed {got}, expected {want})")
        return got

    image("H F H^-1 = G", H, F, G)
    image("H G H^-1 = F", H, G, F)
    r, l, n_iso = qt.isotropic_basis()
    half = Fraction(1, 2)
    img_r, img_l = qt.split(0, -half, 0, half), qt.split(0, half, 0, half)
    ad_n = image("H N H^-1 = -N", H, n_iso, -n_iso)
    # H moves the null pair of the (F, i) plane into the (G, i) plane.
    # It cannot flip the pair (L -> -R, R -> -L): since R - L = N and
    # conjugation is linear, Ad(R) - Ad(L) = Ad(N) = -N, not +N.
    ad_r = image("H R H^-1 = (G-i)/2", H, r, img_r)
    ad_l = image("H L H^-1 = (G+i)/2", H, l, img_l)
    crit.check(ad_r - ad_l == ad_n,
               f"Ad(R) - Ad(L) = Ad(N) (computed {ad_r - ad_l}, "
               f"expected {ad_n})")

    # the same images as literal 2x2 matrices, inverse-free and without
    # Quaternion.__mul__: H R = img_R H and H L = img_L H
    def rational(rows):
        return Matrix(QQ, [[Fraction(x) for x in row] for row in rows])

    h_mat = rational([[1, 1], [1, -1]])
    r_mat, l_mat = rational([[0, 1], [0, 0]]), rational([[0, 0], [1, 0]])
    img_r_mat = rational([[half, -half], [half, -half]])
    img_l_mat = rational([[half, half], [-half, -half]])
    for q, literal, name in ((H, h_mat, "H"), (r, r_mat, "R"),
                             (l, l_mat, "L"), (img_r, img_r_mat, "(G-i)/2"),
                             (img_l, img_l_mat, "(G+i)/2")):
        got = qt.to_matrix2(q)
        miss = CheckReport.of_matrices(got, literal)
        crit.check(got == literal, f"to_matrix2({name}) ({miss})")
    for name, v_mat, img_mat in (("R", r_mat, img_r_mat),
                                 ("L", l_mat, img_l_mat)):
        lhs, rhs = h_mat @ v_mat, img_mat @ h_mat
        crit.check(lhs == rhs, f"2x2 H {name} = Ad({name}) H "
                               f"({CheckReport.of_matrices(lhs, rhs)})")

    # conjugation by N = i is what flips the pair, and it fixes N
    image("N L N^-1 = -R", i, l, -r)
    image("N R N^-1 = -L", i, r, -l)
    image("N N N^-1 = N", i, n_iso, n_iso)

    rng = random.Random(2024)
    for make in (qt.hamilton, qt.split):
        for _ in range(1000):
            p = make(*(Fraction(rng.randint(-9, 9), rng.randint(1, 9))
                       for _ in range(4)))
            q = make(*(Fraction(rng.randint(-9, 9), rng.randint(1, 9))
                       for _ in range(4)))
            if (p * q).norm2() != p.norm2() * q.norm2():
                crit.check(False, "norm multiplicativity")
                break
            if (p * q).conj() != q.conj() * p.conj():
                crit.check(False, "conjugation anti-homomorphism")
                break
    crit.finish()


def test_criterion_09_hadamard_reduction():
    crit = Criterion(9, "Sylvester reduction", 30.0)
    for n in range(13):
        crit.check(hadamard.reduce_to_symmetric(n) == core.k_symmetric(n),
                   f"reduction n={n}")
    crit.finish()


def test_criterion_10_macwilliams():
    crit = Criterion(10, "MacWilliams transform", 20.0)
    worked = gf2.subspace_from(["110"], 3)
    crit.check(bool(gf2.macwilliams_check(worked)), "worked 4x4 example")
    rng = random.Random(4242)
    for _ in range(500):
        n = rng.randint(2, 12)
        space = gf2.random_subspace(rng, n)
        if not gf2.macwilliams_check(space):
            crit.check(False, f"random subspace {space}")
            break
    for n in range(1, 13):
        for k in range(n + 1):
            axes = gf2.subspace_from([1 << b for b in range(k)], n)
            if not gf2.coordinate_subspace_note(axes):
                crit.check(False, f"coordinate subspace n={n} k={k}")
    crit.finish()


def test_criterion_11_transform_behaviors():
    crit = Criterion(11, "transform behaviors", 1.0)
    for n in range(1, 13):
        k = core.k_genfunc(n).mat
        for j in range(n + 1):
            got = k.mul_vector(spectral.binomial_vector(n, j))
            want = [2 ** j * x for x in spectral.binomial_vector(n, n - j)]
            if got != want:
                crit.check(False, f"K b^({j}) n={n}")
        twos = [2 ** (n - p) for p in range(n + 1)]
        threes = [3 ** (n - q) for q in range(n + 1)]
        crit.check(core.covector_transform(n, twos) == threes,
                   f"2^i -> 3^i n={n}")
        crit.check(core.covector_transform(n, threes) ==
                   [2 ** n * x for x in twos], f"3^i -> 2^i rescaled n={n}")
    crit.finish()


def test_criterion_12_end_to_end_cli(tmp_path):
    crit = Criterion(12, "end-to-end CLI", 60.0)
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run(
        [sys.executable, "-m", "krawtchouk.cli", "verify",
         "--suites", "all", "--n-max", "6"],
        capture_output=True, text=True, timeout=60, env=env)
    crit.check(proc.returncode == 0, f"verify exit {proc.returncode}")
    reports = json.loads(proc.stdout)
    for report in reports:
        for key in ("suite", "n_max", "pass", "failures"):
            if key not in report:
                crit.check(False, f"report key {key} missing")
        crit.check(isinstance(report["pass"], bool), "pass is boolean")
        for failure in report["failures"]:
            crit.check(set(failure) >= {"n", "location", "lhs", "rhs"},
                       "failure record shape")
    names = [r["suite"] for r in reports]
    crit.check(names == sorted(names), "reports ordered by suite")

    outdir = tmp_path / "snakes"
    proc = subprocess.run(
        [sys.executable, "-m", "krawtchouk.cli", "snake", "--n", "5",
         "--phi", "pi/2", "--out", str(outdir)],
        capture_output=True, text=True, timeout=60, env=env)
    crit.check(proc.returncode == 0, "snake exit code")
    csvs = sorted(outdir.glob("*.csv"))
    crit.check(len(csvs) == 5, f"{len(csvs)} CSV columns, wanted 5")
    for path in csvs:
        lines = path.read_text().strip().splitlines()
        crit.check(len(lines) == 6, f"{path.name}: {len(lines)} points")
    svg = (outdir / "snake_n5.svg").read_text()
    crit.check(svg.count("<polyline") == 5, "SVG polyline count")
    crit.finish()
