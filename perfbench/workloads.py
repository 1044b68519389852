"""Job lists of the three benchmark workloads, and the checks on their outputs.

A job is one call into one public function of one module.  Its name is the
layer it measures (``<module>.<function>``); several jobs may share a name,
and their times add up under it.  Every job's output is checked after the
timed call, against a reference this file computes itself with plain integer
arithmetic and ``math.comb``, never with the library's constructions.

The seed picks only random inputs (suite seeds, subspaces, the path-sum
column); sizes are fixed, so every seed does the same amount of work up to
the sizes of the random subspaces.

Import this module only after ``krawtchouk`` is imported: the worker times
that import on its own.
"""

from __future__ import annotations

import cmath
import contextlib
import io
import json
import random
from dataclasses import dataclass
from functools import lru_cache, partial
from math import comb
from typing import Any, Callable

from krawtchouk import (cli, core, generalized, gf2, hadamard, pathsum,
                        spectral, sympow, verify)
from krawtchouk.rings import Gaussian, RootTwo

# Orders of every workload.  ``TINY`` keeps the same job lists at orders that
# run in well under a second, for the smoke test.
FULL = {
    "verify_n_max": 16,
    "high_n": 96, "pyramid_n": 192, "ortho_n": 32, "eigen_n": 16,
    "phase_n": 48,
    "reduce_ns": (12, 13, 14), "oracle_int_n": 16, "oracle_gauss_n": 12,
    "path_n": 20, "twiston_n": 16, "subspaces": 40, "gf2_n": 16, "kron_n": 7,
}
TINY = {
    "verify_n_max": 3,
    "high_n": 6, "pyramid_n": 8, "ortho_n": 4, "eigen_n": 4, "phase_n": 5,
    "reduce_ns": (2, 3), "oracle_int_n": 4, "oracle_gauss_n": 3,
    "path_n": 6, "twiston_n": 4, "subspaces": 3, "gf2_n": 4, "kron_n": 2,
}

PHASE_PHI = 0.7
# |entry error| allowed for K(phi), relative to C(n,p), which bounds the sum
# of the absolute values of the terms of entry (p, q) when |beta| = 1
PHASE_RTOL = 1e-9


@dataclass
class Job:
    """One timed call and the check of its result."""

    name: str
    call: Callable[[], Any]
    check: Callable[[Any], bool]
    peak: bool = False  # trace the Python heap peak of this call


# ---------------------------------------------------------------------------
# references
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def krawtchouk_reference(n: int) -> tuple:
    """K^(n) as a tuple of rows.

    Column q holds the coefficients of G(t) = (1+t)^(n-q) (1-t)^q, and
    (1 - t^2) G' = ((n - 2q) - n t) G gives the three-term recurrence
    (p+1) K[p+1] = (n-2q) K[p] - (n-p+1) K[p-1], whose divisions are exact.
    """
    cols = []
    for q in range(n + 1):
        col = [1, n - 2 * q][:n + 1]
        for p in range(1, n):
            col.append(((n - 2 * q) * col[p] - (n - p + 1) * col[p - 1])
                       // (p + 1))
        cols.append(col)
    return tuple(tuple(cols[q][p] for q in range(n + 1)) for p in range(n + 1))


def symmetric_reference(n: int) -> tuple:
    """K^(n) with column q scaled by C(n, q)."""
    return tuple(tuple(x * comb(n, q) for q, x in enumerate(row))
                 for row in krawtchouk_reference(n))


def gaussian_reference(n: int) -> tuple:
    """(re, im) rows of K^(n)(1, i): sum_k C(q,k) i^k C(n-q, p-k)."""
    units = ((1, 0), (0, 1), (-1, 0), (0, -1))
    rows = []
    for p in range(n + 1):
        row = []
        for q in range(n + 1):
            re = im = 0
            for k in range(max(0, p - n + q), min(p, q) + 1):
                c = comb(q, k) * comb(n - q, p - k)
                re += units[k % 4][0] * c
                im += units[k % 4][1] * c
            row.append((re, im))
        rows.append(row)
    return tuple(rows)


def _rows(mat) -> tuple:
    return tuple(tuple(mat.row(i)) for i in range(mat.shape[0]))


def _sqrt2_power(m: int) -> RootTwo:
    return RootTwo(2 ** (m // 2)) if m % 2 == 0 else RootTwo(0, 2 ** (m // 2))


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------

def is_krawtchouk(n: int) -> Callable[[Any], bool]:
    def check(result) -> bool:
        mat = getattr(result, "mat", result)
        return _rows(mat) == krawtchouk_reference(n)
    return check


def report_ok(report) -> bool:
    return report.ok is True


def suites_ok(reports) -> bool:
    return len(reports) == 1 and all(r.ok for r in reports)


def gen_json_ok(n: int) -> Callable[[Any], bool]:
    def check(result) -> bool:
        code, out = result
        payload = json.loads(out)
        ref = krawtchouk_reference(n)
        return (code == 0 and payload["ring"] == "integer"
                and payload["rows"] == payload["cols"] == n + 1
                and len(payload["entries"]) == n + 1
                and all([int(s) for s in row] == list(want)
                        for row, want in zip(payload["entries"], ref)))
    return check


def phase_ok(n: int, phi: float) -> Callable[[Any], bool]:
    beta = cmath.exp(1j * phi)

    def check(mat) -> bool:
        if mat.ring.name != "complex" or mat.shape != (n + 1, n + 1):
            return False
        for p in range(n + 1):
            tol = PHASE_RTOL * comb(n, p)
            for q in range(n + 1):
                want = sum(comb(q, k) * beta ** k * comb(n - q, p - k)
                           for k in range(max(0, p - n + q), min(p, q) + 1))
                if abs(mat[p, q] - want) > tol:
                    return False
        return True
    return check


def eigen_ok(n: int) -> Callable[[Any], bool]:
    """E = diag(+-2^(n/2)) and X diagonal plus skew, as eigen_factors says."""
    def check(factors) -> bool:
        lam = _sqrt2_power(n)
        zero = RootTwo(0)
        for j in range(n + 1):
            sign = 1 if 2 * j <= n else -1
            for i in range(n + 1):
                e_want = sign * lam if i == j else zero
                if i == j:
                    x_want = sign * _sqrt2_power(n - j)
                elif i == n - j:
                    x_want = _sqrt2_power(j)
                else:
                    x_want = zero
                if factors.e[i, j] != e_want or factors.x[i, j] != x_want:
                    return False
        return factors.order == n
    return check


def equals(want) -> Callable[[Any], bool]:
    return lambda got: got == want


def symmetric_ok(n: int) -> Callable[[Any], bool]:
    return lambda mat: _rows(mat) == symmetric_reference(n)


def gaussian_ok(n: int) -> Callable[[Any], bool]:
    def check(mat) -> bool:
        ref = gaussian_reference(n)
        return mat.ring.name == "gaussian" and all(
            (x.re, x.im) == want
            for row, ref_row in zip(_rows(mat), ref)
            for x, want in zip(row, ref_row)) and mat.shape == (n + 1, n + 1)
    return check


# ---------------------------------------------------------------------------
# job lists
# ---------------------------------------------------------------------------

def _gen_json(n: int):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(["gen", "krawtchouk", "--n", str(n),
                         "--format", "json"])
    return code, out.getvalue()


def verify_sweep(seed: int, size: dict) -> list:
    """Every verify suite, one job each: what ``krawtchouk verify`` runs.

    Many small matrices over every exact ring, and K rebuilt for each check
    over only n_max + 1 orders, so per-call overhead, ring arithmetic and
    reference reuse show here.
    """
    n_max = size["verify_n_max"]
    return [Job(f"verify.{name}",
                partial(verify.run_suites, [name], n_max=n_max, seed=seed),
                suites_ok)
            for name in sorted(verify.SUITES)]


def high_order(seed: int, size: dict) -> list:
    """Constructions and identity checks at a few large orders.

    Big integers and dense (n+1)^3 products, each order reused across
    checks: the opposite use of ``core`` and ``matrix`` from verify-sweep.
    The 2^n-enumeration layers and quaternions do no work here.
    """
    n, phi = size["high_n"], PHASE_PHI
    big, ortho_n, eigen_n, phase_n = (size["pyramid_n"], size["ortho_n"],
                                      size["eigen_n"], size["phase_n"])
    return [
        Job("core.k_genfunc", partial(core.k_genfunc, n), is_krawtchouk(n)),
        Job("core.k_binsum", partial(core.k_binsum, n), is_krawtchouk(n)),
        Job("sympow.sym_group_power",
            partial(sympow.sym_group_power, sympow.MAT_H, n),
            is_krawtchouk(n)),
        Job("hadamard.k_pyramid", partial(hadamard.k_pyramid, big),
            is_krawtchouk(big)),
        Job("core.master_check", partial(core.master_check, n), report_ok),
        Job("core.involution_check", partial(core.involution_check, n),
            report_ok),
        Job("core.symmetry_identities_check",
            partial(core.symmetry_identities_check, n), report_ok),
        Job("sympow.master_from_tensor_check",
            partial(sympow.master_from_tensor_check, n), report_ok),
        Job("spectral.binomial_transform_check",
            partial(spectral.binomial_transform_check, n), report_ok),
        Job("generalized.trace_identity_check",
            partial(generalized.trace_identity_check, n, 1, -1), report_ok),
        Job("core.ortho_check", partial(core.ortho_check, ortho_n),
            report_ok),
        Job("spectral.eigen_factors", partial(spectral.eigen_factors, eigen_n),
            eigen_ok(eigen_n)),
        Job("generalized.k_phase", partial(generalized.k_phase, phase_n, phi),
            phase_ok(phase_n, phi)),
        Job("cli.gen", partial(_gen_json, n), gen_json_ok(n)),
    ]


def exponential(seed: int, size: dict) -> list:
    """The layers that enumerate 2^n words, vectors or Sylvester entries.

    The only workload where memory and numpy matter; dense (n+1)^2 products
    do little here.
    """
    rng = random.Random(seed)
    jobs = []
    for i, n in enumerate(size["reduce_ns"]):
        jobs.append(Job("hadamard.reduce_to_symmetric",
                        partial(hadamard.reduce_to_symmetric, n),
                        symmetric_ok(n), peak=i == len(size["reduce_ns"]) - 1))
    n = size["oracle_int_n"]
    jobs.append(Job("pathsum.oracle_matrix.integer",
                    partial(pathsum.oracle_matrix, n), is_krawtchouk(n)))
    m = size["oracle_gauss_n"]
    jobs.append(Job("pathsum.oracle_matrix.gaussian",
                    partial(pathsum.oracle_matrix, m, Gaussian(1),
                            Gaussian(0, 1)),
                    gaussian_ok(m)))
    n = size["path_n"]
    p, q = n // 2, rng.randint(0, n)
    jobs.append(Job("pathsum.path_sum", partial(pathsum.path_sum, n, p, q),
                    equals(krawtchouk_reference(n)[p][q])))
    n = size["twiston_n"]
    p = n // 2
    for q in range(n + 1):
        jobs.append(Job("pathsum.twiston_energy",
                        partial(pathsum.twiston_energy, n, q, p),
                        equals(krawtchouk_reference(n)[p][q])))
    n = size["gf2_n"]
    for _ in range(size["subspaces"]):
        space = gf2.random_subspace(rng, n)
        jobs.append(Job("gf2.macwilliams_check",
                        partial(gf2.macwilliams_check, space),
                        report_ok))
    n = size["kron_n"]
    jobs.append(Job("sympow.kron_remark_check",
                    partial(sympow.kron_remark_check, n), report_ok))
    return jobs


BUILDERS = {"verify-sweep": verify_sweep, "high-order": high_order,
            "exponential": exponential}

# Workloads whose time is spent in the interpreter, as the calibration
# chunk's is; their passes are scaled by it (see run.py).  The exponential
# workload spends most of its time in numpy kernels, which other tenants slow
# far less than the chunk (1.2x against 1.7x on a 2-vCPU VM), so scaling
# would distort it; it is reported in raw seconds.
CALIBRATED = {"verify-sweep", "high-order"}


def build(workload: str, seed: int, size: dict = FULL) -> list:
    return BUILDERS[workload](seed, size)
