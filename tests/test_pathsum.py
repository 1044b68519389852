"""The exhaustive path-sum and twiston oracles against the constructions."""

import math
import tracemalloc
from fractions import Fraction
from itertools import combinations

import pytest

from krawtchouk import core, generalized, pathsum
from krawtchouk.rings import ALPHA, BETA, Gaussian, ring_of


@pytest.fixture(autouse=True)
def fresh_twiston_rows():
    """No row kept by an earlier test hides an enumeration from a test that
    patches ``combinations``."""
    pathsum._twiston_row.cache_clear()
    yield
    pathsum._twiston_row.cache_clear()


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


@pytest.mark.parametrize("word,q", [("RR", -1), ("RR", 3), ("", 1)])
def test_path_weight_refuses_a_depth_outside_the_word(word, q):
    with pytest.raises(ValueError, match=f"quantum depth {q} is outside"):
        pathsum.path_weight(word, q, 1, -1)


@pytest.mark.parametrize("n,p", [(3, -1), (3, 4), (3, 5), (-1, 0)])
def test_words_to_refuses_a_position_outside_0_to_n(n, p):
    with pytest.raises(ValueError, match=f"p = {p} is outside 0..{n}"):
        pathsum.words_to(n, p)


def test_path_sum_values():
    assert pathsum.path_sum(4, 3, 2) == 0
    assert pathsum.path_sum(3, 1, 2) == -1
    for n in range(7):
        for p in range(n + 1):
            assert pathsum.path_sum(n, p, 0) == math.comb(n, p)


def test_ensemble_counts_partition():
    for n in range(1, 13):
        assert pathsum.partition_check(n)
    words = list(pathsum.words_to(5, 2))
    assert len(words) == math.comb(5, 2) == 10
    assert words == sorted(words)
    assert all(w.count("R") == 2 for w in words)
    with pytest.raises(ValueError):
        pathsum.path_sum(3, 4, 0)
    with pytest.raises(ValueError):
        pathsum.path_sum(3, 1, 4)


def test_partition_check_reports_the_count_at_each_position(monkeypatch):
    report = pathsum.partition_check(5)
    assert report.ok and report.n == 5
    # a wrong binomial fails at its position, count against C(n,p)
    monkeypatch.setattr(pathsum, "comb", lambda n, p: math.comb(n, p) + (p == 2))
    report = pathsum.partition_check(5)
    assert not report.ok
    assert (report.note, report.n, report.location, report.lhs,
            report.rhs) == ("paths to p = C(n,p)", 5, (2,), "10", "11")


def test_partition_check_refuses_orders_it_cannot_sweep():
    for n in (pathsum.ENUM_BOUND_NUMERIC + 1, -1):
        with pytest.raises(ValueError, match="enumeration bound"):
            pathsum.partition_check(n)


@pytest.mark.parametrize("n", range(13))
def test_oracle_matches_classical(n):
    oracle = pathsum.oracle_matrix(n, 1, -1)
    assert oracle == core.k_genfunc(n).mat
    # the tagged construction compares equal to the untagged oracle
    assert core.k_genfunc(n) == oracle


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
    i = Gaussian(0, 1)
    assert pathsum.oracle_matrix(n, 1, -1) == core.k_genfunc(n).mat
    assert pathsum.oracle_matrix(n, 3, -2) == generalized.k_general(n, 3, -2)
    assert (pathsum.oracle_matrix(n, Gaussian(1), i)
            == generalized.k_general(n, Gaussian(1), i))
    assert (pathsum.oracle_matrix(n, ALPHA, BETA)
            == generalized.k_general_symbolic(n))
    for alpha, beta in ((1, -1), (ALPHA, BETA)):
        for order in (17, -1):
            with pytest.raises(ValueError, match="enumeration bound"):
                pathsum.oracle_matrix(order, alpha, beta)
    with pytest.raises(TypeError):  # the refusal cannot be lifted
        pathsum.oracle_matrix(17, 1, -1, bound=17)


def per_word_tally(n):
    """tally[p][s][r] by one increment per word and window shift: the
    oracle's sweep before it packed the tallies, kept as the reference."""
    tally = [[[0] * (n + 1) for _ in range(n + 1)] for _ in range(n + 1)]
    for word in range(2 ** n):
        window = word
        for by_r in tally[word.bit_count()]:
            by_r[window.bit_count()] += 1
            window >>= 1
    return tally


@pytest.mark.parametrize("n", [*range(13), 16])
def test_packed_tally_is_the_per_word_tally(n):
    tally = list(pathsum._tally(n))
    assert tally == per_word_tally(n)
    # every word is tallied once in each window
    for s in range(n + 1):
        assert sum(sum(by_window[s]) for by_window in tally) == 2 ** n, s


def never_enumerate(*args):
    raise AssertionError("enumerated before refusing the rings")


MIXED_RINGS = [(1, Gaussian(0, 1)), (Gaussian(1), -1), (ALPHA, 1),
               (Fraction(1, 2), 1)]


@pytest.mark.parametrize("alpha, beta", MIXED_RINGS)
def test_oracle_matrix_refuses_alpha_and_beta_from_different_rings(
        monkeypatch, alpha, beta):
    monkeypatch.setattr(pathsum, "_tally", never_enumerate)
    with pytest.raises(ValueError, match="must come from the same ring"):
        pathsum.oracle_matrix(3, alpha, beta)


@pytest.mark.parametrize("alpha, beta", MIXED_RINGS)
def test_path_sum_refuses_alpha_and_beta_from_different_rings(
        monkeypatch, alpha, beta):
    monkeypatch.setattr(pathsum, "combinations", never_enumerate)
    with pytest.raises(ValueError, match="must come from the same ring"):
        pathsum.path_sum(3, 1, 1, alpha, beta)


def test_oracles_refuse_a_float_as_k_general_does():
    # a float is in no ring; the oracles returned an "integer" matrix of
    # floats before
    for call in (lambda: generalized.k_general(3, 1, 0.5),
                 lambda: pathsum.oracle_matrix(3, 1, 0.5),
                 lambda: pathsum.path_sum(3, 1, 1, 1, 0.5)):
        with pytest.raises(TypeError, match="no ring registered for float"):
            call()


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


def test_twiston_at_the_benchmark_size():
    for q in range(17):
        assert pathsum.twiston_energy(16, q, 8) == core.k_entry(16, 8, q), q


def test_a_row_of_twiston_energies_sweeps_its_subsets_once(monkeypatch):
    drawn = []

    def counted(*args):
        for subset in combinations(*args):
            drawn.append(subset)
            yield subset

    monkeypatch.setattr(pathsum, "combinations", counted)
    n, p = 10, 4
    pathsum.twiston_energy(n, 0, p)
    first = len(drawn)
    assert first == math.comb(n, p)
    for q in range(n + 1):
        pathsum.twiston_energy(n, q, p)
    assert len(drawn) == first


@pytest.mark.parametrize("n, p", [(10 ** 9, 0), (65, 0), (65, 1),
                                  (65, 64), (65, 65)])
def test_twiston_refuses_orders_above_the_row_bound(monkeypatch, n, p):
    # C(n, p) is small here, but the row would hold n + 1 energies
    monkeypatch.setattr(pathsum, "combinations", never_enumerate)
    with pytest.raises(ValueError, match=f"order {n} exceeds the twiston "
                                         "row bound 64"):
        pathsum.twiston_energy(n, 0, p)


def test_twiston_admits_the_row_bound():
    n = core.DEFAULT_ORDER_BOUND
    assert pathsum.twiston_energy(n, 5, 0) == 1
    # one particle at a time: n - q at +1, q at -1
    assert pathsum.twiston_energy(n, 5, 1) == n - 2 * 5


@pytest.mark.parametrize("n, p", [(10 ** 9, 0), (10 ** 9, 10 ** 9),
                                  (65, 0), (65, 1), (65, 64), (65, 65)])
def test_path_sums_refuse_orders_above_the_order_bound(monkeypatch, n, p):
    # C(n, p) is small here, but each path would copy n - p positions
    monkeypatch.setattr(pathsum, "combinations", never_enumerate)
    with pytest.raises(ValueError, match=f"order {n} exceeds the path sum "
                                         "bound 64"):
        pathsum.path_sum(n, p, 0)
    with pytest.raises(ValueError, match=f"order {n} exceeds the path word "
                                         "bound 64"):
        pathsum.words_to(n, p)


def test_path_sums_admit_the_order_bound():
    n = core.DEFAULT_ORDER_BOUND
    assert pathsum.path_sum(n, 1, 5) == core.k_entry(n, 1, 5)
    # t^(n-1) in (1 + 2t)^(n-5) (1 + 3t)^5: leave out one factor's 1
    assert pathsum.path_sum(n, n - 1, 5, 2, 3) == \
        (n - 5) * 2 ** (n - 6) * 3 ** 5 + 5 * 2 ** (n - 5) * 3 ** 4
    words = list(pathsum.words_to(n, n))
    assert words == ["R" * n]


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
            pathsum.words_to(n, p)
        with pytest.raises(ValueError, match="enumeration bound"):
            pathsum.twiston_energy(n, 0, p)


def test_words_to_draws_its_first_word_without_listing_the_rest():
    tracemalloc.start()
    try:
        words = pathsum.words_to(20, 10)
        first = next(words)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert first == "L" * 10 + "R" * 10
    # listing all C(20,10) = 184,756 position tuples first took ~24 MB
    assert peak < 2 ** 20, peak


def test_oracle_matrix_sweeps_its_largest_order_in_little_memory():
    tracemalloc.start()
    try:
        pathsum.oracle_matrix(pathsum.ENUM_BOUND_NUMERIC)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # one table over the low halves keeps the peak near 0.1 MB; a table
    # per high popcount would take about 0.8 MB
    assert peak < 2 ** 19, peak


def test_twiston_row_sweeps_its_subsets_in_little_memory():
    tracemalloc.start()
    try:
        pathsum.twiston_energy(16, 0, 8)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the sweep keeps one list of n marks; listing the C(16,8) = 12,870
    # subsets first would take 1.45 MB
    assert peak < 2 ** 15, peak


@pytest.mark.parametrize("alpha, beta", [
    (1, -1), (3, -2), (Gaussian(1), Gaussian(0, 1)), (ALPHA, BETA)])
def test_path_sum_is_the_sum_of_its_path_weights(alpha, beta):
    zero = ring_of(alpha).zero
    for n in range(9):
        for p in range(n + 1):
            words = list(pathsum.words_to(n, p))
            for q in range(n + 1):
                want = sum((pathsum.path_weight(w, q, alpha, beta)
                            for w in words), zero)
                got = pathsum.path_sum(n, p, q, alpha, beta)
                assert got == want and type(got) is type(want), (n, p, q)


@pytest.mark.parametrize("n", range(11))
def test_twiston_energy_is_the_product_over_subsets(n):
    for q in range(n + 1):
        energies = [-1] * q + [1] * (n - q)
        for p in range(n + 1):
            want = sum(math.prod(energies[i] for i in subset)
                       for subset in combinations(range(n), p))
            assert pathsum.twiston_energy(n, q, p) == want, (q, p)


@pytest.mark.parametrize("q", [0, 7, 20])
def test_path_sum_at_the_benchmark_size(q):
    assert pathsum.path_sum(20, 10, q) == core.k_entry(20, 10, q)
