"""Named verification suites over ranges of matrix orders.

Each suite is a list of parts, and each part sweeps an identity family over
the orders it is given and yields a :class:`~krawtchouk.matrix.CheckReport`
per check.  :func:`run_suites` alone clips ``n_max`` to each part's orders,
and it names, seeds and records every suite; the CLI `verify` subcommand is
a thin wrapper.  Every identity is checked cell by cell through
:func:`krawtchouk.matrix.check_cells`, so a failure names its check, the
order n, the first bad cell and its two sides.  The location is [i, j] in a
matrix, [i] in a vector and null for a scalar identity or for two sides of
different shapes or lengths, whose sides are then those shapes or lengths.
A randomized check puts the index of its random instance first.  The
quaternion suite proves its algebra identities on a basis, and a basis
check puts the indices of its two basis elements first: 0..3 for the
units 1, i, j (F), k (G) and 4..9 for the sums e_a + e_b, a < b, in
lexicographic order (4 = 1 + i, ..., 9 = j + k).  A suite's report keeps
the first failure of each check and order.  Suites are deterministic: each
draws from its own generator seeded with the explicit seed, and the
reports are ordered by suite name regardless of execution order.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations, product
from math import comb

from . import core, gf2, generalized, hadamard, pathsum, quaternion, spectral, sympow
from .matrix import CheckReport, Matrix, SuiteReport, check_cells, vector_cells
from .rings import Gaussian, ZZ

# part caps in SUITES on top of the user n_max: 2^n enumerations and
# symbolic expansions get tighter limits so `verify --suites all` stays fast
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


def _each(check):
    """A part that yields ``check(n)`` at each order n."""
    return lambda orders, _rng: map(check, orders)


def _constructions(orders, _rng):
    for n in orders:
        ref = core.k_reference(n)
        yield core.construction_equivalence_check(n)
        yield check_cells([
            ("H^on = K", sympow.sym_group_power(sympow.MAT_H, n).cells(ref)),
            ("pyramid recurrence = K", hadamard.k_pyramid(n).mat.cells(ref)),
        ], n=n)


def _oracles(orders, _rng):
    for n in orders:
        ref, idx = core.k_reference(n), range(n + 1)
        # one report: a failed partition, else the oracles' first mismatch
        yield pathsum.partition_check(n) and check_cells([
            ("path sum = K", pathsum.oracle_matrix(n, 1, -1).cells(ref)),
            ("twiston energy = K",
             (((p, q), pathsum.twiston_energy(n, q, p), ref[p, q])
              for p in idx for q in idx)),
        ], n=n)


def _cross(orders, _rng):
    # the sweep builds each symbolic order once: the cross identities at n
    # read the orders n-1, n and n+1, and no later order reads n-2
    built = {}
    for n in orders:
        yield generalized.general_cross_check(n, built)
        built.pop(n - 2, None)
        classical = generalized.specialize(built[n], 1, -1)
        yield check_cells(
            [("K(alpha, beta) at (1,-1) = K",
              classical.cells(core.k_reference(n)))], n=n)


def _quaternion(_orders, rng):
    yield quaternion.jhhk_check()
    images = quaternion.hadamard_conjugation()
    r, l, n_iso = quaternion.isotropic_basis()
    half = Fraction(1, 2)
    expected = {
        "F": quaternion.G, "G": quaternion.F, "i": -quaternion.I_S,
        "N": -n_iso,
        "R": quaternion.split(0, -half, 0, half),   # (G - i)/2
        "L": quaternion.split(0, half, 0, half),    # (G + i)/2
    }
    yield check_cells(
        [(f"H {name} H^-1", [(None, images[name], want)])
         for name, want in expected.items()]
        + [(f"null vector {name}", [(None, vec.norm2(), 0)])
           for name, vec in (("R", r), ("L", l))])

    # The basis proves each identity for every rational pair, given that
    # the implementation is bilinear over Q; the seeded rational draws,
    # with their non-unit denominators, are what exercise that.
    for kind_name, kind in (("hamilton", quaternion.hamilton),
                            ("split", quaternion.split)):
        basis = _polarization_basis(kind)
        for s, t in product(range(4), repeat=2):
            yield _instance((s, t), check_cells(_bilinear_checks(
                kind_name, "on the basis", basis[s], basis[t])))
        for s, t in product(range(len(basis)), repeat=2):
            yield _instance((s, t), check_cells(_norm_checks(
                kind_name, "on the basis", basis[s], basis[t])))
        for t in range(RANDOM_QUATERNIONS):
            p = _random_quaternion(rng, kind)
            q = _random_quaternion(rng, kind)
            yield _instance((t,), check_cells(
                _norm_checks(kind_name, "at random", p, q)
                + _bilinear_checks(kind_name, "at random", p, q)))


def _polarization_basis(kind) -> list:
    """The units e_0..e_3, then e_a + e_b for a < b in lexicographic order.

    The bilinear identities need only the four units.  N(pq) - N(p) N(q)
    is quadratic in each argument, and a quadratic form on Q^4 that
    vanishes at all ten of these vanishes everywhere.
    """
    units = [kind(*(int(a == b) for b in range(4))) for a in range(4)]
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


def _random_quaternion(rng, kind):
    """Four random coefficients num/den, num in -9..9 and den in 1..9.

    Each component draws its numerator, then its denominator.
    """
    return kind(*[Fraction(rng.randint(-9, 9), rng.randint(1, 9))
                  for _ in range(4)])


def _functoriality(orders, rng):
    group, algebra = sympow.sym_group_power, sympow.sym_algebra_power
    for n in orders:
        for t in range(10):
            a = Matrix(ZZ, [[rng.randint(-4, 4) for _ in range(2)]
                            for _ in range(2)])
            b = Matrix(ZZ, [[rng.randint(-4, 4) for _ in range(2)]
                            for _ in range(2)])
            alg_a, alg_b = algebra(a, n), algebra(b, n)
            yield _instance((t,), check_cells([
                ("functoriality",
                 group(a @ b, n).cells(group(a, n) @ group(b, n))),
                ("additivity", algebra(a + b, n).cells(alg_a + alg_b)),
                ("bracket preservation", algebra(a @ b - b @ a, n).cells(
                    alg_a @ alg_b - alg_b @ alg_a)),
                ("derivative cross-check",
                 sympow.sym_algebra_power_by_derivative(a, n).cells(alg_a)),
            ], n=n))


def _reduction(orders, _rng):
    for n in orders:
        reduced = hadamard.reduce_to_symmetric(n)
        labels = hadamard.weight_labels(n)
        counts = [labels.count(p) for p in range(n + 1)]
        yield check_cells([
            ("Sylvester reduction = K Gamma",
             reduced.cells(core.k_symmetric(n))),
            ("weight class sizes = C(n,p)",
             vector_cells(counts, [comb(n, p) for p in range(n + 1)])),
        ], n=n)


def _planes(orders, _rng):
    # depths 0..2 of five rows each, orders depth..depth + 4, cut at the last
    for depth in orders[:3]:
        rows = min(5, orders[-1] - depth + 1)
        planes = {direction: hadamard.pyramid_plane(direction, depth, rows)
                  for direction in hadamard.DIRECTIONS}
        for r in range(rows):
            m = depth + r
            ref = core.k_reference(m)
            want = {"west-down": ref.col(depth), "east-down": ref.col(r),
                    "north-up": ref.row(depth), "south-up": ref.row(m - depth)}
            yield check_cells(
                [(f"{direction} plane, depth {depth}",
                  vector_cells(plane[r], want[direction]))
                 for direction, plane in planes.items()], n=m)


def _worked_example(orders, _rng):
    for n in orders:  # 3 only: the span of 110 in Z_2^3
        worked = gf2.subspace_from(["110"], n)
        yield gf2.macwilliams_check(worked)
        yield check_cells([
            ("worked example character", vector_cells(
                gf2.weight_character(worked), [1, 0, 1, 0])),
            ("worked example complement", vector_cells(
                gf2.weight_character(gf2.complement(worked)),
                [1, 1, 1, 1])),
        ], n=n)


def _random_subspaces(orders, rng):
    if not orders:
        return
    for t in range(RANDOM_SUBSPACES):
        n = rng.randint(orders[0], orders[-1])
        space = gf2.random_subspace(rng, n)
        yield _instance((t,), gf2.macwilliams_check(space))


def _coordinate_subspaces(orders, _rng):
    for n in orders:
        for k_dim in range(n + 1):
            axes = gf2.subspace_from([1 << i for i in range(k_dim)], n)
            yield gf2.coordinate_subspace_note(axes)


def _phase_oracle(orders, _rng):
    for n in orders:
        oracle = pathsum.oracle_matrix(n, Gaussian(1), Gaussian(0, 1))
        yield check_cells(
            [("path sum = K(i)",
              oracle.cells(generalized.k_phase(n, math.pi / 2)))], n=n)


# Each suite's parts (first, cap, part), run in order: a part checks the
# orders first..min(n_max, cap), or first..n_max when cap is None.  A lambda
# looks its check up when it runs, so a check patched on its module runs.
SUITES = {
    "construction-equivalence": [(0, None, _constructions),
                                 (0, PATH_CAP, _oracles)],
    "involution": [(0, None, _each(lambda n: core.involution_check(n)))],
    "master": [(1, None, _each(lambda n: core.master_check(n))),
               (1, None, _each(
                   lambda n: sympow.master_from_tensor_check(n)))],
    "ortho": [(1, None, _each(lambda n: core.ortho_check(n)))],
    "spectral": [(0, SPECTRAL_CAP,
                  _each(lambda n: spectral.spectral_suite_check(n)))],
    "cross": [(1, SYMBOLIC_CAP, _cross)],
    "trace": [(1, SYMBOLIC_CAP,
               _each(lambda n: generalized.trace_identity_check(n))),
              (1, None,
               _each(lambda n: generalized.trace_identity_check(n, 1, -1)))],
    "quaternion": [(0, 0, _quaternion)],  # reads no order
    "sympow": [(1, None, _each(lambda n: sympow.lrn_relations_check(n))),
               (1, None, _each(lambda n: sympow.symmetry_check(n))),
               (1, None, _each(lambda n: sympow.skew_factorization_check(n))),
               (1, KRON_CAP, _each(lambda n: sympow.kron_remark_check(n))),
               (1, KRON_CAP, _functoriality)],
    "hadamard-reduction": [(0, REDUCTION_CAP, _reduction)],
    "pyramid": [(1, REDUCTION_CAP,
                 _each(lambda n: hadamard.pyramid_cross_check(n))),
                (0, 6, _planes)],
    "macwilliams": [(3, 3, _worked_example),
                    (2, REDUCTION_CAP, _random_subspaces),
                    (1, REDUCTION_CAP, _coordinate_subspaces)],
    "phase": [(0, SPECTRAL_CAP,
               _each(lambda n: generalized.phase_coherence_check(n))),
              (1, SPECTRAL_CAP, _phase_oracle)],
}


def run_suites(names, n_max: int = 6, seed: int = 0):
    """Run the named suites (or all) and return reports sorted by name.

    The only reader of ``n_max``: each part of a suite gets its orders from
    its declared first order and cap, and all the parts of a suite draw
    from the suite's one ``random.Random(seed)``.  An exception raised in a
    part is one failure of its suite, with ``n`` and ``location`` null,
    and the run goes on with the next part.
    """
    import random

    if n_max < 0:
        raise ValueError(f"n_max must be non-negative, got {n_max}")
    unknown = [s for s in names if s != "all" and s not in SUITES]
    if unknown:
        raise KeyError(f"unknown suites: {', '.join(unknown)}")
    reports = []
    for name in sorted(SUITES) if "all" in names else sorted(set(names)):
        report, rng = SuiteReport(name, n_max), random.Random(seed)
        for first, cap, part in SUITES[name]:
            last = n_max if cap is None else min(n_max, cap)
            try:
                for check in part(range(first, last + 1), rng):
                    report.record(check)
            except Exception as error:  # a guard that fired, say
                report.record(CheckReport(
                    False, note=f"{type(error).__name__}: {error}"))
        reports.append(report)
    return reports
