"""Planted faults: a one-cell fault in a construction at one order reaches
the ``verify`` report of every suite that reads it, as a named failure at
that order, and never escapes as an exception.

Each row plants +2 in one cell of a builder's output at one order (one
count of a weight character, for a subspace of Z_2^n), runs every suite,
and pins the first failure of each suite that must report it.
A row that fails names a suite blind to that builder.
"""

import json

import pytest

from krawtchouk import cli, core, gf2, hadamard, spectral, verify
from krawtchouk.core import KrawtchoukMatrix
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
]


def plant(monkeypatch, module, name, order, cell):
    real = getattr(module, name)

    def planted(arg, *args):
        out = real(arg, *args)
        if getattr(arg, "n", arg) != order:  # a subspace's order is its n
            return out
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
