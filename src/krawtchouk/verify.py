"""Named verification suites over ranges of matrix orders.

Each suite sweeps an identity family up to an order cap and reports
failures in a machine-readable form; the CLI `verify` subcommand is a thin
wrapper.  Every identity is checked cell by cell through
:func:`krawtchouk.matrix.check_cells`, so a failure names its check, the
order n, the first bad cell and its two sides.  The location is [i, j] in a
matrix, [i] in a vector and null for a scalar identity or for two sides of
different shapes or lengths, whose sides are then those shapes or lengths.
A randomized check puts the index of its random instance first.  The
quaternion suite proves its algebra identities on a basis, and a basis
check puts the indices of its two basis elements first: 0..3 for the
units 1, i, j (F), k (G) and 4..9 for the sums e_a + e_b, a < b, in
lexicographic order (4 = 1 + i, ..., 9 = j + k).  A suite keeps the first
failure of each check and order.
Suites are deterministic: randomized ones derive everything from an
explicit seed, and the report is ordered by suite name regardless of
execution order.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from itertools import combinations, product
from math import comb

from . import core, gf2, generalized, hadamard, pathsum, quaternion, spectral, sympow
from .matrix import CheckReport, Matrix, SuiteReport, check_cells, vector_cells
from .rings import Gaussian, ZZ

# per-suite caps on top of the user n_max: 2^n enumerations and symbolic
# expansions get tighter limits so `verify --suites all` stays fast
PATH_CAP = 12
SYMBOLIC_CAP = 8
SPECTRAL_CAP = 10
REDUCTION_CAP = 12
KRON_CAP = 6
RANDOM_SUBSPACES = 500
RANDOM_QUATERNIONS = 32


def _instance(index: tuple, report: CheckReport) -> CheckReport:
    """The report with an instance's index first in its location.

    The index is (t,) for the t-th random instance and (s, t) for the pair
    of basis elements s and t.
    """
    if report.ok:
        return report
    return report._replace(location=(*index, *(report.location or ())))


def _suite_construction(n_max: int, seed: int) -> SuiteReport:
    report = SuiteReport("construction-equivalence", n_max)
    for n in range(n_max + 1):
        ref = core.k_reference(n)
        report.record(core.construction_equivalence_check(n))
        checks = [
            ("H^on = K", sympow.sym_group_power(sympow.MAT_H, n).cells(ref)),
            ("pyramid recurrence = K", hadamard.k_pyramid(n).mat.cells(ref)),
        ]
        if n <= PATH_CAP:
            idx = range(n + 1)
            checks += [
                ("path sum = K", pathsum.oracle_matrix(n, 1, -1).cells(ref)),
                ("twiston energy = K",
                 (((p, q), pathsum.twiston_energy(n, q, p), ref[p, q])
                  for p in idx for q in idx)),
            ]
            report.record(pathsum.partition_check(n))
        report.record(check_cells(checks, n=n))
    return report


def _suite_involution(n_max: int, seed: int) -> SuiteReport:
    report = SuiteReport("involution", n_max)
    for n in range(n_max + 1):
        report.record(core.involution_check(n))
    return report


def _suite_master(n_max: int, seed: int) -> SuiteReport:
    report = SuiteReport("master", n_max)
    for n in range(1, n_max + 1):
        report.record(core.master_check(n))
        report.record(sympow.master_from_tensor_check(n))
    return report


def _suite_ortho(n_max: int, seed: int) -> SuiteReport:
    report = SuiteReport("ortho", n_max)
    for n in range(1, n_max + 1):
        report.record(core.ortho_check(n))
    return report


def _suite_spectral(n_max: int, seed: int) -> SuiteReport:
    report = SuiteReport("spectral", n_max)
    for n in range(min(n_max, SPECTRAL_CAP) + 1):
        report.record(spectral.spectral_suite_check(n))
    return report


def _suite_cross(n_max: int, seed: int) -> SuiteReport:
    report = SuiteReport("cross", n_max)
    for n in range(1, min(n_max, SYMBOLIC_CAP) + 1):
        report.record(generalized.general_cross_check(n))
        symbolic = generalized.k_general_symbolic(n)
        classical = generalized.specialize(symbolic, 1, -1)
        report.record(check_cells(
            [("K(alpha, beta) at (1,-1) = K",
              classical.cells(core.k_reference(n)))], n=n))
    return report


def _suite_trace(n_max: int, seed: int) -> SuiteReport:
    report = SuiteReport("trace", n_max)
    for n in range(1, min(n_max, SYMBOLIC_CAP) + 1):
        report.record(generalized.trace_identity_check(n))
    for n in range(1, n_max + 1):
        report.record(generalized.trace_identity_check(n, 1, -1))
    return report


def _suite_quaternion(n_max: int, seed: int) -> SuiteReport:
    report = SuiteReport("quaternion", n_max)
    report.record(quaternion.jhhk_check())
    images = quaternion.hadamard_conjugation()
    r, l, n_iso = quaternion.isotropic_basis()
    half = Fraction(1, 2)
    expected = {
        "F": quaternion.G, "G": quaternion.F, "i": -quaternion.I_S,
        "N": -n_iso,
        "R": quaternion.split(0, -half, 0, half),   # (G - i)/2
        "L": quaternion.split(0, half, 0, half),    # (G + i)/2
    }
    report.record(check_cells(
        [(f"H {name} H^-1", [(None, images[name], want)])
         for name, want in expected.items()]
        + [(f"null vector {name}", [(None, vec.norm2(), 0)])
           for name, vec in (("R", r), ("L", l))]))

    # The basis proves each identity for every rational pair, given that
    # the implementation is bilinear over Q; the seeded rational draws,
    # with their non-unit denominators, are what exercise that.
    rng = random.Random(seed)
    for kind_name, kind in (("hamilton", quaternion.HAMILTON),
                            ("split", quaternion.SPLIT)):
        basis = _polarization_basis(kind)
        for s, t in product(range(4), repeat=2):
            report.record(_instance((s, t), check_cells(_bilinear_checks(
                kind_name, "on the basis", basis[s], basis[t]))))
        for s, t in product(range(len(basis)), repeat=2):
            report.record(_instance((s, t), check_cells(_norm_checks(
                kind_name, "on the basis", basis[s], basis[t]))))
        for t in range(RANDOM_QUATERNIONS):
            p = _random_quaternion(rng, kind)
            q = _random_quaternion(rng, kind)
            report.record(_instance((t,), check_cells(
                _norm_checks(kind_name, "at random", p, q)
                + _bilinear_checks(kind_name, "at random", p, q))))
    return report


def _polarization_basis(kind: str) -> list:
    """The units e_0..e_3, then e_a + e_b for a < b in lexicographic order.

    The bilinear identities need only the four units.  N(pq) - N(p) N(q)
    is quadratic in each argument, and a quadratic form on Q^4 that
    vanishes at all ten of these vanishes everywhere.
    """
    units = [quaternion.Quaternion(kind, *(int(a == b) for b in range(4)))
             for a in range(4)]
    return units + [units[a] + units[b] for a, b in combinations(range(4), 2)]


def _norm_checks(kind_name: str, where: str, p, q) -> list:
    """N(pq) = N(p) N(q)."""
    return [(f"{kind_name} norm multiplicativity {where}",
             [(None, (p * q).norm2(), p.norm2() * q.norm2())])]


def _bilinear_checks(kind_name: str, where: str, p, q) -> list:
    """conj(pq) = conj(q) conj(p) and the 2x2 image of pq."""
    pq = p * q
    lhs = quaternion.to_matrix2(p) @ quaternion.to_matrix2(q)
    return [(f"{kind_name} conjugation anti-hom {where}",
             [(None, pq.conj(), q.conj() * p.conj())]),
            (f"{kind_name} 2x2 homomorphism {where}",
             lhs.cells(quaternion.to_matrix2(pq)))]


def _random_quaternion(rng: random.Random, kind: str):
    """Four random coefficients num/den, num in -9..9 and den in 1..9.

    Each component draws its numerator, then its denominator.
    """
    return quaternion.Quaternion(
        kind, *[Fraction(rng.randint(-9, 9), rng.randint(1, 9))
                for _ in range(4)])


def _suite_sympow(n_max: int, seed: int) -> SuiteReport:
    report = SuiteReport("sympow", n_max)
    for n in range(1, n_max + 1):
        report.record(sympow.lrn_relations_check(n))
        report.record(sympow.symmetry_check(n))
        report.record(sympow.skew_factorization_check(n))
        if n <= KRON_CAP:
            report.record(sympow.kron_remark_check(n))

    rng = random.Random(seed)
    group, algebra = sympow.sym_group_power, sympow.sym_algebra_power
    for n in range(1, min(n_max, KRON_CAP) + 1):
        for t in range(10):
            a = Matrix(ZZ, [[rng.randint(-4, 4) for _ in range(2)]
                            for _ in range(2)])
            b = Matrix(ZZ, [[rng.randint(-4, 4) for _ in range(2)]
                            for _ in range(2)])
            alg_a, alg_b = algebra(a, n), algebra(b, n)
            report.record(_instance((t,), check_cells([
                ("functoriality",
                 group(a @ b, n).cells(group(a, n) @ group(b, n))),
                ("additivity", algebra(a + b, n).cells(alg_a + alg_b)),
                ("bracket preservation", algebra(a @ b - b @ a, n).cells(
                    alg_a @ alg_b - alg_b @ alg_a)),
                ("derivative cross-check",
                 sympow.sym_algebra_power_by_derivative(a, n).cells(alg_a)),
            ], n=n)))
    return report


def _suite_reduction(n_max: int, seed: int) -> SuiteReport:
    report = SuiteReport("hadamard-reduction", n_max)
    for n in range(min(n_max, REDUCTION_CAP) + 1):
        reduced = hadamard.reduce_to_symmetric(n)
        labels = hadamard.weight_labels(n)
        counts = [labels.count(p) for p in range(n + 1)]
        report.record(check_cells([
            ("Sylvester reduction = K Gamma",
             reduced.cells(core.k_symmetric(n))),
            ("weight class sizes = C(n,p)",
             vector_cells(counts, [comb(n, p) for p in range(n + 1)])),
        ], n=n))
    return report


def _suite_pyramid(n_max: int, seed: int) -> SuiteReport:
    report = SuiteReport("pyramid", n_max)
    report.record(hadamard.pyramid_cross_check(max(2, min(n_max, REDUCTION_CAP))))
    for depth in range(3):
        rows = 5
        planes = {direction: hadamard.pyramid_plane(direction, depth, rows)
                  for direction in hadamard.DIRECTIONS}
        for r in range(rows):
            m = depth + r
            line = range(m + 1)
            want = {
                "west-down": [core.k_entry(m, p, depth) for p in line],
                "east-down": [core.k_entry(m, p, r) for p in line],
                "north-up": [core.k_entry(m, depth, q) for q in line],
                "south-up": [core.k_entry(m, m - depth, q) for q in line],
            }
            report.record(check_cells(
                [(f"{direction} plane, depth {depth}",
                  vector_cells(plane[r], want[direction]))
                 for direction, plane in planes.items()], n=m))
    return report


def _suite_macwilliams(n_max: int, seed: int) -> SuiteReport:
    report = SuiteReport("macwilliams", n_max)
    worked = gf2.subspace_from(["110"], 3)
    report.record(gf2.macwilliams_check(worked))
    report.record(check_cells([
        ("worked example character", vector_cells(
            gf2.weight_character(worked), [1, 0, 1, 0])),
        ("worked example complement", vector_cells(
            gf2.weight_character(gf2.complement(worked)),
            [1, 1, 1, 1])),
    ], n=3))

    rng = random.Random(seed)
    cap = max(2, min(n_max, REDUCTION_CAP))
    for t in range(RANDOM_SUBSPACES):
        n = rng.randint(2, cap)
        space = gf2.random_subspace(rng, n)
        perp = gf2.complement(space)
        # K (K char) = 2^n char, consistency with the involution
        k = core.k_reference(n)
        char = gf2.weight_character(space)
        report.record(_instance((t,), gf2.macwilliams_check(space)))
        report.record(_instance((t,), check_cells([
            ("dim W + dim W-perp = n", [(None, space.dim + perp.dim, n)]),
            ("double complement", [(None, gf2.complement(perp), space)]),
            ("K (K char) = 2^n char",
             vector_cells(k.mul_vector(k.mul_vector(char)),
                          [2 ** n * c for c in char])),
        ], n=n)))

    for n in range(1, min(n_max, REDUCTION_CAP) + 1):
        for k_dim in range(n + 1):
            axes = gf2.subspace_from([1 << i for i in range(k_dim)], n)
            report.record(gf2.coordinate_subspace_note(axes))
    return report


def _suite_phase(n_max: int, seed: int) -> SuiteReport:
    report = SuiteReport("phase", n_max)
    for n in range(min(n_max, SPECTRAL_CAP) + 1):
        report.record(generalized.phase_coherence_check(n))
        if 1 <= n <= PATH_CAP:
            oracle = pathsum.oracle_matrix(n, Gaussian(1), Gaussian(0, 1))
            report.record(check_cells(
                [("path sum = K(i)",
                  oracle.cells(generalized.k_phase(n, math.pi / 2)))], n=n))
    return report


SUITES = {
    "construction-equivalence": _suite_construction,
    "involution": _suite_involution,
    "master": _suite_master,
    "ortho": _suite_ortho,
    "spectral": _suite_spectral,
    "cross": _suite_cross,
    "trace": _suite_trace,
    "quaternion": _suite_quaternion,
    "sympow": _suite_sympow,
    "hadamard-reduction": _suite_reduction,
    "pyramid": _suite_pyramid,
    "macwilliams": _suite_macwilliams,
    "phase": _suite_phase,
}


def run_suites(names, n_max: int = 6, seed: int = 0):
    """Run the named suites (or all) and return reports sorted by name."""
    if n_max < 0:
        raise ValueError(f"n_max must be non-negative, got {n_max}")
    if "all" in names:
        picked = sorted(SUITES)
    else:
        unknown = [s for s in names if s not in SUITES]
        if unknown:
            raise KeyError(f"unknown suites: {', '.join(unknown)}")
        picked = sorted(set(names))
    return [SUITES[name](n_max, seed) for name in picked]
