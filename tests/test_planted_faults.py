"""Planted faults: a one-cell fault in a construction at one order reaches
the ``verify`` report of every suite that reads it, as a named failure at
that order, and never escapes as an exception.

Each row of FAULTS plants +2 in one cell of a builder's output at one order
(one count of a weight character, for a subspace of Z_2^n), runs every
suite, and pins the first failure of each suite that must report it.
A row that fails names a suite blind to that builder.

Each row of GUARDS plants a fault that trips one of the three exactness
guards.  Its ``AssertionError`` is one failure of each suite that meets
it, and every suite still reports.
"""

import json

import pytest

from krawtchouk import (cli, core, generalized, gf2, hadamard, pathsum,
                        spectral, sympow, verify)
from krawtchouk.core import KrawtchoukMatrix
from krawtchouk.lanes import Lanes
from krawtchouk.matrix import Matrix

N_MAX = 8

# (module, builder, order, cell, {suite: [first failure at that order]})
FAULTS = [
    # (K B')[0, 2] = K b^(2) at row 0, 2^2 b^(3)[0] = 4, gains 2 K[0, 0];
    # B'[0, 2] = C(2, 0) + 2 against the symmetric power of U = [[1, 1],
    # [0, 1]]
    (spectral, "binomial_matrix", 5, (0, 2),
     {"spectral": [{"n": 5, "check": "K B = B D", "location": [0, 2],
                    "lhs": "6", "rhs": "4"}],
      "sympow": [{"n": 5, "check": "U^on = B", "location": [0, 2],
                  "lhs": "1", "rhs": "3"}]}),
    # counts[0] = 1 + 2 in both characters: at random instance 7, with
    # dim W = 1, 2 (1 + 2) = 6 against K char(W)[0] = 2 + 2 = 4; the axes
    # of dim 0 have b^(0) = [1, 0, ...]
    (gf2, "weight_character", 7, (0,),
     {"macwilliams": [{"n": 7, "check": gf2.MACWILLIAMS, "location": [7, 0],
                       "lhs": "6", "rhs": "4"},
                      {"n": 7, "check": "char(W) = b^(dim W)",
                       "location": [0], "lhs": "3", "rhs": "1"}]}),
    # K(7, 2, 3) = -3 + 2; the pyramid is read only against the reference
    (hadamard, "k_pyramid", 7, (2, 3),
     {"construction-equivalence": [{"n": 7, "check": "pyramid recurrence = K",
                                    "location": [2, 3], "lhs": "-1",
                                    "rhs": "-3"}]}),
    # K(7, 2, 3) = -3 + 2 in the binomial sum; only the construction
    # equivalence compares it, against the generating function
    (core, "k_binsum", 7, (2, 3),
     {"construction-equivalence": [{"n": 7, "check": "GenFunc = BinomialSum",
                                    "location": [2, 3], "lhs": "-3",
                                    "rhs": "-1"}]}),
    # H^kron[0, 0] = 1 + 2: (G^box H^kron)[0, 0] = 5 (1 + 2) against
    # (H^kron F^box)[0, 0] = 5, which F^box[0, 0] = 0 keeps from the fault;
    # at order 7 no suite reports it, because KRON_CAP = 6
    (sympow, "kron_power", 5, (0, 0),
     {"sympow": [{"n": 5, "check": "G^box H^kron = H^kron F^box",
                  "location": [0, 0], "lhs": "15", "rhs": "5"}]}),
    # F^box[0, 0] = 0 + 2 and G^box[0, 0] = 5 + 2 balance at [0, 0]
    # (7 = 2 + 5), and [0, 1] reads 7 against 5; KRON_CAP hides order 7
    (sympow, "box_power", 5, (0, 0),
     {"sympow": [{"n": 5, "check": "G^box H^kron = H^kron F^box",
                  "location": [0, 1], "lhs": "7", "rhs": "5"}]}),
    # every A^alg at order 7 gains 2 at [2, 3]: (H^grp G^alg)[0, 3] gains
    # 2 H^grp[0, 2] = 2, while row 0 of F^alg keeps the left side; and
    # [L, R][1, 3] gains 2 L[1, 2] - 2 R[1, 2] = 4 against N[1, 3] = 0
    (sympow, "sym_algebra_power", 7, (2, 3),
     {"master": [{"n": 7, "check": "F^alg H^grp = H^grp G^alg",
                  "location": [0, 3], "lhs": "1", "rhs": "3"}],
      "sympow": [{"n": 7, "check": "[L,R] = N (plain bracket)",
                  "location": [1, 3], "lhs": "4", "rhs": "0"}]}),
    # the cross-check of random instance 0 reads 9 + 2 at [2, 3]; at order
    # 7 no suite reports it, because the functoriality part stops at
    # KRON_CAP = 6
    (sympow, "sym_algebra_power_by_derivative", 5, (2, 3),
     {"sympow": [{"n": 5, "check": "derivative cross-check",
                  "location": [0, 2, 3], "lhs": "11", "rhs": "9"}]}),
    # (K Gamma)[2, 3] = K(7, 2, 3) C(7, 3) = -105, + 2 in the Sylvester
    # reduction, which only the hadamard-reduction suite reads
    (hadamard, "reduce_to_symmetric", 7, (2, 3),
     {"hadamard-reduction": [{"n": 7,
                              "check": "Sylvester reduction = K Gamma",
                              "location": [2, 3], "lhs": "-103",
                              "rhs": "-105"}]}),
    # twiston_energy(7, 3, 2) is K(7, 2, 3) = -3 + 2; only the construction
    # equivalence reads the twistons
    (pathsum, "twiston_energy", 7, (3, 2),
     {"construction-equivalence": [{"n": 7, "check": "twiston energy = K",
                                    "location": [2, 3], "lhs": "-1",
                                    "rhs": "-3"}]}),
    # the path-sum oracle's K(7, 2, 3) = -3 + 2, and its K(i)[2, 3] =
    # 3+12i + 2; the construction equivalence and the phase suite read it
    (pathsum, "oracle_matrix", 7, (2, 3),
     {"construction-equivalence": [{"n": 7, "check": "path sum = K",
                                    "location": [2, 3], "lhs": "-1",
                                    "rhs": "-3"}],
      "phase": [{"n": 7, "check": "path sum = K(i)", "location": [2, 3],
                 "lhs": "5+12i", "rhs": "3+12i"}]}),
    # K(alpha, beta)[2, 3] at order 7 gains 2 over every ring it is built
    # in; the cross identities tie order 7 to orders 6 and 8
    (generalized, "k_general", 7, (2, 3),
     {"cross": [{"n": 6, "check": "cross identity (i)", "location": [1, 3],
                 "lhs": "6a^2+12ab+3b^2", "rhs": "6a^2+12ab+3b^2+2"},
                {"n": 7, "check": "cross identity (i)", "location": [1, 3],
                 "lhs": "10a^2+15ab+3b^2+2", "rhs": "10a^2+15ab+3b^2"},
                {"n": 7, "check": "K(alpha, beta) at (1,-1) = K",
                 "location": [2, 3], "lhs": "-1", "rhs": "-3"},
                {"n": 8, "check": "cross identity (iii)", "location": [3, 3],
                 "lhs": "6a^3+6a^2b-9ab^2-3b^3",
                 "rhs": "6a^3+6a^2b-9ab^2-3b^3+2a-2b"}],
      "phase": [{"n": 7, "check": "phase pi = classical", "location": [2, 3],
                 "lhs": "-1", "rhs": "-3"},
                {"n": 7, "check": "path sum = K(i)", "location": [2, 3],
                 "lhs": "3+12i", "rhs": "5+12i"}],
      "trace": [{"n": 7, "check": "trace identity", "location": [1, 2],
                 "lhs": "10a^2+15ab+3b^2",
                 "rhs": "10a^2+15ab+3b^2+2"}]}),
]


def plant(monkeypatch, module, name, order, cell):
    real = getattr(module, name)

    def planted(*args):
        out = real(*args)
        # the order is the first argument that is no matrix; a subspace's
        # order is its n
        if next(getattr(a, "n", a) for a in args
                if not isinstance(a, Matrix)) != order:
            return out
        if isinstance(out, int):  # one entry: the cell is its other args
            return out + 2 * (args[1:] == cell)
        if isinstance(out, list):  # a vector: the cell is (i,)
            out = out.copy()
            out[cell[0]] += 2
            return out
        if isinstance(out, KrawtchoukMatrix):  # a tagged matrix: plant in it
            return out._replace(mat=shifted(out.mat, cell))
        return shifted(out, cell)

    monkeypatch.setattr(module, name, planted)


def shifted(mat, cell):
    rows = [list(row) for row in mat.data]
    rows[cell[0]][cell[1]] += 2
    return Matrix(mat.ring, rows)


@pytest.mark.parametrize("module, name, order, cell, reported", FAULTS,
                         ids=[f"{row[1]}@{row[2]}" for row in FAULTS])
def test_planted_fault_reaches_the_report(monkeypatch, capsys, module, name,
                                          order, cell, reported):
    plant(monkeypatch, module, name, order, cell)
    reports = verify.run_suites(["all"], n_max=N_MAX)
    assert {r.suite: r.failures for r in reports if not r.ok} == reported

    # the CLI exits 1 on a failure and its stdout is still the JSON report
    for suite, failures in reported.items():
        code = cli.main(["verify", "--suites", suite, "--n-max", str(N_MAX)])
        assert code == 1
        assert json.loads(capsys.readouterr().out) == [
            {"suite": suite, "n_max": N_MAX, "pass": False,
             "failures": failures}]


def genfunc_remainder(monkeypatch):
    # +2 in cell 2 of (1+t)^5: 1+t no longer divides column 0 of K^(5), so
    # every k_reference(5) raises
    plant(monkeypatch, core, "genfunc_column", 5, (2,))


def pyramid_parity(monkeypatch):
    # K(6, 2, 0) + 1 breaks the parity of row 2 of K^(6), the bottom row
    # of the north-up plane of depth 2
    real = hadamard.k_entry
    monkeypatch.setattr(hadamard, "k_entry", lambda n, p, q: real(n, p, q)
                        + ((n, p, q) == (6, 2, 0)))


def lane_carry(monkeypatch, count=8):
    # every decode of ``count`` lanes carries one out of its top lane
    real = Lanes.unpack
    monkeypatch.setattr(Lanes, "unpack", lambda self, total, *first: real(
        self, total + ((self.count == count) << self.bits * self.count),
        *first))


def lane_carry_in_five_lanes(monkeypatch):
    # the involution suite squares K^(8) in n//2 + 1 = 5 lanes, and decodes
    # no 8-lane value at N_MAX = 8
    lane_carry(monkeypatch, 5)


# (fault, the guard's message, the suites that meet it)
GUARDS = [
    (genfunc_remainder, "1+t does not divide the column exactly",
     {"construction-equivalence", "cross", "hadamard-reduction",
      "involution", "macwilliams", "master", "ortho", "phase", "pyramid",
      "spectral", "sympow"}),
    (pyramid_parity, "parity broke: adjacent entries of a Krawtchouk row "
                     "always share parity", {"pyramid"}),
    (lane_carry, "a packed value overflowed its lanes",
     {"construction-equivalence", "hadamard-reduction", "master", "ortho",
      "spectral", "sympow", "trace"}),
    (lane_carry_in_five_lanes, "a packed value overflowed its lanes",
     {"construction-equivalence", "hadamard-reduction", "involution",
      "master", "ortho", "spectral", "sympow", "trace"}),
]


@pytest.mark.parametrize("fault, message, suites", GUARDS,
                         ids=[row[0].__name__ for row in GUARDS])
def test_a_guard_that_fires_is_a_failure_of_each_suite(monkeypatch, capsys,
                                                       fault, message, suites):
    core.k_reference.cache_clear()  # else a cached K^(5) hides the fault
    fault(monkeypatch)
    try:
        reports = verify.run_suites(["all"], n_max=N_MAX)
        code = cli.main(["verify", "--suites", "all", "--n-max", str(N_MAX)])
    finally:
        core.k_reference.cache_clear()
    failure = {"n": None, "check": f"AssertionError: {message}",
               "location": None, "lhs": "", "rhs": ""}
    assert {r.suite: r.failures for r in reports if not r.ok} == {
        suite: [failure] for suite in suites}
    # every suite still reports, and the CLI prints them all and exits 1
    assert [r.suite for r in reports] == sorted(verify.SUITES)
    assert code == 1
    assert json.loads(capsys.readouterr().out) == [r.to_dict()
                                                   for r in reports]
