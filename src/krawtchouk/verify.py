"""Named verification suites over ranges of matrix orders.

Each suite sweeps an identity family up to an order cap and reports
failures in a machine-readable form; the CLI `verify` subcommand is a thin
wrapper.  Suites are deterministic: randomized ones derive everything from
an explicit seed, and the report is ordered by suite name regardless of
execution order.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from math import comb

from . import core, gf2, generalized, hadamard, pathsum, quaternion, spectral, sympow
from .matrix import Matrix, SuiteReport
from .rings import Gaussian, ZZ

# per-suite caps on top of the user n_max: 2^n enumerations and symbolic
# expansions get tighter limits so `verify --suites all` stays fast
PATH_CAP = 12
SYMBOLIC_CAP = 8
SPECTRAL_CAP = 10
REDUCTION_CAP = 12
KRON_CAP = 6
RANDOM_SUBSPACES = 500
RANDOM_QUATERNIONS = 1000


def _suite_construction(n_max: int, seed: int) -> SuiteReport:
    report = SuiteReport("construction-equivalence", n_max)
    for n in range(n_max + 1):
        ref = core.k_reference(n)
        report.record(core.construction_equivalence_check(n))
        if sympow.sym_group_power(sympow.MAT_H, n) != ref:
            report.fail(n, "sym-tensor-power", "H^on", "K")
        if hadamard.k_pyramid(n).mat != ref:
            report.fail(n, "pyramid-recurrence", "pyramid", "K")
        if n <= PATH_CAP:
            oracle = pathsum.oracle_matrix(n, 1, -1)
            if oracle != ref:
                where = oracle.first_mismatch(ref)
                report.fail(n, f"path-sum at {where[:2]}", where[2], where[3])
            for p in range(n + 1):
                for q in range(n + 1):
                    energy = pathsum.twiston_energy(n, q, p)
                    if energy != ref[p, q]:
                        report.fail(n, f"twiston ({p},{q})", energy, ref[p, q])
            if not pathsum.partition_check(n):
                report.fail(n, "path partition", "sum C(n,p)", "2^n")
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
        k = core.k_reference(n)
        for i in range(n + 1):
            for j in range(n + 1):
                dual = sum(k[i, q] * k[q, j] for q in range(n + 1))
                want = 2 ** n if i == j else 0
                if dual != want:
                    report.fail(n, f"duality ({i},{j})", dual, want)
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
        if classical != core.k_binsum(n).mat:
            report.fail(n, "specialization (1,-1)", "symbolic", "classical")
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
    ok, fh, hg = quaternion.jhhk_check()
    if not ok:
        report.fail(None, "FH = HG = 1 - i", str(fh), str(hg))

    images = quaternion.hadamard_conjugation()
    r, l, n_iso = quaternion.isotropic_basis()
    half = Fraction(1, 2)
    expected = {
        "F": quaternion.G, "G": quaternion.F, "i": -quaternion.I_S,
        "N": -n_iso,
        "R": quaternion.split(0, -half, 0, half),   # (G - i)/2
        "L": quaternion.split(0, half, 0, half),    # (G + i)/2
    }
    for name, want in expected.items():
        if images[name] != want:
            report.fail(None, f"H {name} H^-1", str(images[name]), str(want))

    for name, vec in (("R", r), ("L", l)):
        if vec.norm2() != 0:
            report.fail(None, f"null vector {name}", str(vec.norm2()), "0")

    rng = random.Random(seed)
    for kind_name, make in (("hamilton", quaternion.hamilton),
                            ("split", quaternion.split)):
        for _ in range(RANDOM_QUATERNIONS):
            p = make(*(Fraction(rng.randint(-9, 9), rng.randint(1, 9))
                       for _ in range(4)))
            q = make(*(Fraction(rng.randint(-9, 9), rng.randint(1, 9))
                       for _ in range(4)))
            if (p * q).norm2() != p.norm2() * q.norm2():
                report.fail(None, f"{kind_name} norm multiplicativity",
                            str((p * q).norm2()), str(p.norm2() * q.norm2()))
                break
            if (p * q).conj() != q.conj() * p.conj():
                report.fail(None, f"{kind_name} conjugation anti-hom",
                            str((p * q).conj()), str(q.conj() * p.conj()))
                break
            lhs = quaternion.to_matrix2(p) @ quaternion.to_matrix2(q)
            if lhs != quaternion.to_matrix2(p * q):
                report.fail(None, f"{kind_name} 2x2 homomorphism", "", "")
                break
    return report


def _suite_sympow(n_max: int, seed: int) -> SuiteReport:
    report = SuiteReport("sympow", n_max)
    for n in range(1, n_max + 1):
        report.record(sympow.lrn_relations_check(n))
        report.record(sympow.symmetry_check(n))
        report.record(sympow.skew_factorization_check(n))
        if n <= KRON_CAP:
            report.record(sympow.kron_remark_check(n))

    rng = random.Random(seed)
    for n in range(1, min(n_max, KRON_CAP) + 1):
        for _ in range(10):
            a = Matrix(ZZ, [[rng.randint(-4, 4) for _ in range(2)]
                            for _ in range(2)])
            b = Matrix(ZZ, [[rng.randint(-4, 4) for _ in range(2)]
                            for _ in range(2)])
            if sympow.sym_group_power(a @ b, n) != \
                    sympow.sym_group_power(a, n) @ sympow.sym_group_power(b, n):
                report.fail(n, "functoriality", "", "")
            if sympow.sym_algebra_power(a + b, n) != \
                    sympow.sym_algebra_power(a, n) + sympow.sym_algebra_power(b, n):
                report.fail(n, "additivity", "", "")
            bra = a @ b - b @ a
            mat_bra = sympow.sym_algebra_power(a, n) @ sympow.sym_algebra_power(b, n) \
                - sympow.sym_algebra_power(b, n) @ sympow.sym_algebra_power(a, n)
            if sympow.sym_algebra_power(bra, n) != mat_bra:
                report.fail(n, "bracket preservation", "", "")
            if sympow.sym_algebra_power_by_derivative(a, n) != \
                    sympow.sym_algebra_power(a, n):
                report.fail(n, "derivative cross-check", "", "")
    return report


def _suite_reduction(n_max: int, seed: int) -> SuiteReport:
    report = SuiteReport("hadamard-reduction", n_max)
    for n in range(min(n_max, REDUCTION_CAP) + 1):
        reduced = hadamard.reduce_to_symmetric(n)
        direct = core.k_symmetric(n)
        if reduced != direct:
            where = reduced.first_mismatch(direct)
            report.fail(n, f"reduction at {where[:2]}", where[2], where[3])
        counts = [len(c) for c in hadamard.weight_labels(n).classes()]
        if counts != [comb(n, p) for p in range(n + 1)]:
            report.fail(n, "weight class sizes", counts, "binomials")
    return report


def _suite_pyramid(n_max: int, seed: int) -> SuiteReport:
    report = SuiteReport("pyramid", n_max)
    report.record(hadamard.pyramid_cross_check(max(2, min(n_max, REDUCTION_CAP))))
    for depth in range(3):
        rows = 5
        west = hadamard.pyramid_plane("west-down", depth, rows)
        east = hadamard.pyramid_plane("east-down", depth, rows)
        north = hadamard.pyramid_plane("north-up", depth, rows)
        south = hadamard.pyramid_plane("south-up", depth, rows)
        for r in range(rows):
            m = depth + r
            if list(west.rows[r]) != [core.k_entry(m, p, depth)
                                      for p in range(m + 1)]:
                report.fail(m, f"west-down depth {depth} row {r}", "", "")
            if list(east.rows[r]) != [core.k_entry(m, p, r)
                                      for p in range(m + 1)]:
                report.fail(m, f"east-down depth {depth} row {r}", "", "")
            if list(north.rows[r]) != [core.k_entry(m, depth, q)
                                       for q in range(m + 1)]:
                report.fail(m, f"north-up depth {depth} row {r}", "", "")
            if list(south.rows[r]) != [core.k_entry(m, m - depth, q)
                                       for q in range(m + 1)]:
                report.fail(m, f"south-up depth {depth} row {r}", "", "")
    return report


def _suite_macwilliams(n_max: int, seed: int) -> SuiteReport:
    report = SuiteReport("macwilliams", n_max)
    worked = gf2.subspace_from(["110"], 3)
    report.record(gf2.macwilliams_check(worked))
    if gf2.weight_character(worked).as_list() != [1, 0, 1, 0]:
        report.fail(3, "worked example character", "", "[1,0,1,0]")
    if gf2.weight_character(gf2.complement(worked)).as_list() != [1, 1, 1, 1]:
        report.fail(3, "worked example complement", "", "[1,1,1,1]")

    rng = random.Random(seed)
    cap = max(2, min(n_max, REDUCTION_CAP))
    for _ in range(RANDOM_SUBSPACES):
        n = rng.randint(2, cap)
        space = gf2.random_subspace(rng, n)
        report.record(gf2.macwilliams_check(space))
        perp = gf2.complement(space)
        if space.dim + perp.dim != n:
            report.fail(n, "dim W + dim W-perp", space.dim + perp.dim, n)
        if gf2.complement(perp).basis != space.basis:
            report.fail(n, "double complement", str(gf2.complement(perp)),
                        str(space))
        # K (K char) = 2^n char, consistency with the involution
        k = core.k_reference(n)
        char = gf2.weight_character(space).as_list()
        twice = k.mul_vector(k.mul_vector(char))
        if twice != [2 ** n * c for c in char]:
            report.fail(n, "double transform", str(twice), "2^n char")

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
            if oracle != generalized.k_phase(n, math.pi / 2):
                report.fail(n, "phase oracle", "path sum", "K(i)")
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
    if "all" in names:
        picked = sorted(SUITES)
    else:
        unknown = [s for s in names if s not in SUITES]
        if unknown:
            raise KeyError(f"unknown suites: {', '.join(unknown)}")
        picked = sorted(set(names))
    return [SUITES[name](n_max, seed) for name in picked]
