"""The exhaustive path-sum and twiston oracles against the constructions."""

import math

import pytest

from krawtchouk import core, generalized, pathsum
from krawtchouk.rings import ALPHA, BETA, Gaussian


def test_path_weight_examples():
    assert pathsum.path_weight("RLRLLL", 4, 1, -1) == 1
    assert pathsum.path_weight("RLRLLL", 0, 1, -1) == 1
    assert pathsum.path_weight("RR", 2, ALPHA, BETA) == BETA * BETA
    assert pathsum.path_weight("LLR", 3, ALPHA, BETA) == BETA
    # right steps below the quantum window carry alpha, not 1: the q = 0
    # column must sum to C(n,p) alpha^p
    assert pathsum.path_weight("RRL", 0, ALPHA, BETA) == ALPHA * ALPHA
    assert pathsum.path_weight("RRL", 1, ALPHA, BETA) == ALPHA * BETA
    with pytest.raises(ValueError):
        pathsum.path_weight("LL", 3, 1, -1)
    with pytest.raises(ValueError):
        pathsum.path_weight("LX", 2, 1, -1)


def test_path_sum_values():
    assert pathsum.path_sum(4, 3, 2) == 0
    assert pathsum.path_sum(3, 1, 2) == -1
    for n in range(7):
        for p in range(n + 1):
            assert pathsum.path_sum(n, p, 0) == math.comb(n, p)


def test_ensemble_counts_partition():
    for n in range(1, 13):
        assert pathsum.partition_check(n)
    ens = pathsum.PathEnsemble(5, 2, 3, 1, -1)
    words = list(ens.words())
    assert len(words) == ens.count == 10
    assert words == sorted(words)
    assert all(w.count("R") == 2 for w in words)
    with pytest.raises(ValueError):
        pathsum.PathEnsemble(3, 4, 0, 1, -1)


@pytest.mark.parametrize("n", range(13))
def test_oracle_matches_classical(n):
    assert pathsum.oracle_matrix(n, 1, -1) == core.k_genfunc(n).mat
    tagged = pathsum.k_pathsum(n)
    assert tagged.method == "PathSumOracle"
    assert tagged == core.k_genfunc(n)


@pytest.mark.parametrize("n", range(1, 13))
def test_oracle_matches_symbolic(n):
    assert pathsum.oracle_matrix(n, ALPHA, BETA) == \
        generalized.k_general_symbolic(n)


def test_oracle_matches_random_integer_pairs():
    import random
    rng = random.Random(11)
    for n in (1, 3, 6, 9, 12):
        a, b = rng.randint(-5, 5), rng.randint(-5, 5)
        assert pathsum.oracle_matrix(n, a, b) == generalized.k_general(n, a, b)


def test_oracle_numeric_upper_bound_order():
    n = 16
    assert pathsum.oracle_matrix(n, 1, -1) == core.k_genfunc(n).mat
    with pytest.raises(ValueError, match="enumeration bound"):
        pathsum.oracle_matrix(17, 1, -1)
    with pytest.raises(ValueError, match="enumeration bound"):
        pathsum.oracle_matrix(13, ALPHA, BETA)
    with pytest.raises(TypeError):  # the refusal cannot be lifted
        pathsum.oracle_matrix(17, 1, -1, bound=17)


def test_oracle_phase_case():
    i = Gaussian(0, 1)
    assert pathsum.oracle_matrix(3, Gaussian(1), i) == \
        generalized.k_phase(3, math.pi / 2)


def test_twiston_energies():
    assert pathsum.twiston_energy(3, 1, 1) == 1
    assert pathsum.twiston_energy(4, 2, 2) == -2
    for n in range(6):
        for q in range(n + 1):
            assert pathsum.twiston_energy(n, q, 0) == 1
    with pytest.raises(ValueError):
        pathsum.twiston_energy(3, 0, 4)


@pytest.mark.parametrize("n", range(1, 13))
def test_twiston_equals_krawtchouk(n):
    k = core.k_genfunc(n).mat
    for p in range(n + 1):
        for q in range(n + 1):
            assert pathsum.twiston_energy(n, q, p) == k[p, q]


def test_path_sum_cells_match_oracle():
    assert pathsum.path_sum(9, 4, 5, 1, -1) == core.k_entry(9, 4, 5)
    assert pathsum.path_sum(6, 2, 3, ALPHA, BETA) == \
        pathsum.oracle_matrix(6, ALPHA, BETA)[2, 3]
    # the bundled example: quantum depth 2, destination 3 on a 4-lattice
    assert pathsum.path_sum(4, 3, 2) == 0


def test_enumeration_bound_admits_the_largest_used_calls():
    assert math.comb(20, 10) <= pathsum.WORD_BOUND < math.comb(24, 12)
    pathsum.require_enumerable(20, 10)
    pathsum.require_enumerable(16, 8)
    for n in range(60):
        for p in range(n + 1):
            within = math.comb(n, p) <= pathsum.WORD_BOUND
            try:
                pathsum.require_enumerable(n, p)
            except ValueError:
                assert not within, (n, p)
            else:
                assert within, (n, p)


def test_enumerations_refuse_before_any_work(monkeypatch):
    def never(*args):
        raise AssertionError("enumerated above the word bound")

    monkeypatch.setattr(pathsum, "combinations", never)
    monkeypatch.setattr(pathsum, "path_weight", never)
    for n, p in ((24, 12), (40, 6), (10 ** 9, 5 * 10 ** 8)):
        with pytest.raises(ValueError, match="enumeration bound"):
            pathsum.path_sum(n, p, 0)
        with pytest.raises(ValueError, match="enumeration bound"):
            pathsum.PathEnsemble(n, p, 1, 1, -1).total_weight()
        with pytest.raises(ValueError, match="enumeration bound"):
            pathsum.words_to(n, p)
        with pytest.raises(ValueError, match="enumeration bound"):
            pathsum.twiston_energy(n, 0, p)
