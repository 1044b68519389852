"""Brute-force sum-over-paths oracles.

A descending lattice path of n steps is a word over {L, R}; the paths
ending at position p are exactly the words with p letters R.  Left steps
are neutral; every right step contributes a phase, beta inside the
"quantum regime" (the first q steps) and alpha outside it:

    weight_q(w) = beta^(R's among the first q) * alpha^(R's after them)

Summing the weights over all C(n,p) paths gives exactly the coefficient of
t^p in (1 + alpha t)^(n-q) (1 + beta t)^q, i.e. the (p, q) entry of the
generalized Krawtchouk matrix -- by exhaustive enumeration, sharing no
code with the constructions it checks.  At alpha = 1 this collapses to the
classical rule "each right turn in the quantum region flips the sign"
(beta = -1), or rotates the phase (beta = e^(i phi)).  Giving left steps a
nontrivial phase instead would break the agreement with the generating
function for alpha != 1: the column-0 entries must be C(n,p) alpha^p, and
a path reaching p with q = 0 crosses p right steps, all classical.

The second oracle is thermodynamic: the p-wise interaction energy of n
two-state particles, q of them in the state of energy -1, is the p-th
elementary symmetric function of the energies, again summed by brute force
over all C(n,p) index subsets.

Both oracles stay exhaustive: they visit every path and every subset.  But
a path's weight depends only on r, its number of right steps in the
window.  So each path enumeration is a tally of small integers, and the
ring arithmetic runs once per class of equal weight, not once per path:
the sum over r of count_r * beta^r * alpha^(p-r).  The matrix oracle
keeps its tallies in lanes of one packed int per position p and adds each
word's whole tally, every column at once, with one big-int add: the word
is split into a low and a high half, one table over the low halves gives
their lanes, and each high half shifts those lanes and adds its own.

A subset's product is -1 exactly when an odd number of its members lie
among the first q, so one sweep of the p-subsets gives the energy at
every q at once: each subset adds +1 at its members of odd rank and -1 at
those of even rank, and the prefix sums of those marks count, for each q,
the subsets of product -1.  The row of n + 1 energies is kept per (n, p),
since every caller asks for the whole row.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import Counter
from functools import lru_cache
from itertools import accumulate, combinations, repeat
from math import comb

from .core import DEFAULT_ORDER_BOUND
from .lanes import Lanes, lane_bits
from .matrix import CheckReport, Matrix, check_cells, vector_cells
from .rings import ring_of

ENUM_BOUND_NUMERIC = 16   # 2^n words; n above this is refused, in every ring
# C(n,p) words or subsets one path sum or twiston energy may enumerate;
# C(20,10) = 184,756 fits
WORD_BOUND = 2 ** 20


def require_enumerable(n: int, p: int) -> None:
    """Refuse, before enumerating, more than WORD_BOUND p-subsets of n.

    C(n,k) grows with k up to n/2, so the running product stops at the
    first partial count above the bound, after O(log WORD_BOUND) steps.
    """
    count = 1
    for i in range(min(p, n - p)):
        count = count * (n - i) // (i + 1)
        if count > WORD_BOUND:
            raise ValueError(f"C({n},{p}) exceeds the enumeration bound "
                             f"{WORD_BOUND}")


def require_order(n: int, what: str) -> None:
    """Refuse an order above ``DEFAULT_ORDER_BOUND``, before allocating.

    Every word or subset of n holds up to n positions, and a twiston row
    n + 1 energies, so a small C(n,p) alone does not bound the work.
    """
    if n > DEFAULT_ORDER_BOUND:
        raise ValueError(f"order {n} exceeds the {what} bound "
                         f"{DEFAULT_ORDER_BOUND}")


def path_weight(word: str, q: int, alpha, beta):
    """Weight of one path: beta per R in the first q steps, alpha per R after."""
    if not 0 <= q <= len(word):
        raise ValueError(f"quantum depth {q} is outside 0..{len(word)}")
    weight = ring_of(alpha).one
    for i, letter in enumerate(word):
        if letter == "R":
            weight = weight * (beta if i < q else alpha)
        elif letter != "L":
            raise ValueError(f"bad letter {letter!r} in path word")
    return weight


def words_to(n: int, p: int):
    """All words of length n with exactly p letters R, lexicographically.

    Words compare with L < R, so drawing the n-p positions of L in the
    lex order that ``combinations`` yields gives the words in order, one
    at a time.  The bounds are checked when called, not when the first
    word is drawn.
    """
    if not 0 <= p <= n:
        raise ValueError(f"p = {p} is outside 0..{n}")
    require_enumerable(n, p)
    require_order(n, "path word")
    return (_word(n, positions)
            for positions in combinations(range(n), n - p))


def _word(n: int, l_positions) -> str:
    letters = ["R"] * n
    for i in l_positions:
        letters[i] = "L"
    return "".join(letters)


def path_sum(n: int, p: int, q: int, alpha=1, beta=-1):
    """Sum of path weights over all words reaching p; equals K^(n)_{pq}(a,b).

    Every path is tallied by r, its right steps in the window, then
    weighed.  A path is the tuple of its n-p positions of L, drawn in the
    order of ``words_to``; ``bisect_left`` counts those below q, so the
    path has r = q - that count right steps in the window.  Orders above
    ``DEFAULT_ORDER_BOUND`` are refused, since each path copies n - p
    positions even where C(n,p) is small.
    """
    if not (0 <= p <= n and 0 <= q <= n):
        raise ValueError("p and q must lie in 0..n")
    if ring_of(alpha) != ring_of(beta):
        raise ValueError("alpha and beta must come from the same ring")
    require_enumerable(n, p)
    require_order(n, "path sum")
    l_below = Counter(map(bisect_left, combinations(range(n), n - p),
                          repeat(q)))
    by_r = [0] * (p + 1)
    for below, count in l_below.items():
        by_r[q - below] = count
    return _weigh(by_r, _class_weights(alpha, beta, p), ring_of(alpha).zero)


def oracle_matrix(n: int, alpha=1, beta=-1) -> Matrix:
    """Full (n+1) x (n+1) matrix of path sums by one sweep over all 2^n words.

    Each word is tallied in every column at once, by its number p of right
    steps and, per column q, the number r of them in the window.  The sweep
    splits each word into its low n // 2 bits and the rest, and adds the
    word's whole tally to the packed int of its p with one big-int add
    (see :func:`_tally`); the ring arithmetic runs once per (p, q, r) class
    afterwards, so one bound serves every ring.
    """
    if not 0 <= n <= ENUM_BOUND_NUMERIC:
        raise ValueError(f"order {n} is outside the 2^n enumeration bound "
                         f"0..{ENUM_BOUND_NUMERIC}")
    ring = ring_of(alpha)
    if ring != ring_of(beta):
        raise ValueError("alpha and beta must come from the same ring")
    cells = []
    for p, by_window in enumerate(_tally(n)):
        weights = _class_weights(alpha, beta, p)
        cells.append([_weigh(by_window[n - q], weights, ring.zero)
                      for q in range(n + 1)])
    return Matrix(ring, cells)


def _tally(n: int):
    """Yield, for p = 0..n, by_window[s][r]: the words with p right steps,
    r of them in word >> s.

    Bit n-1-i of the word is step i (L=0 < R=1: lexicographic order), so
    word >> s is the window of the first q = n - s steps.  Lane s(n+1) + r
    of packed[p] counts those words, in lanes of ``lane_bits(2^n)`` bits.
    A word splits into its low b = n // 2 bits and its high n - b bits.
    For s < b, word >> s has the right steps of low >> s and all those of
    the high half, so the lanes of one table entry per low half, shifted
    up by popcount(high) lanes, are the word's lanes below shift b; for
    s >= b the high half alone gives them.  Every word is still visited
    and adds its own lanes.
    """
    bits = lane_bits(2 ** n)
    row = n + 1
    b = n // 2
    low_table = [sum(1 << bits * (s * row + (low >> s).bit_count())
                     for s in range(b)) for low in range(2 ** b)]
    low_pops = [low.bit_count() for low in range(2 ** b)]
    packed = [0] * row
    for high in range(2 ** (n - b)):
        high_pop = high.bit_count()
        shift = bits * high_pop
        high_lanes = sum(
            1 << bits * (s * row + (high >> (s - b)).bit_count())
            for s in range(b, row))
        for low_lanes, low_pop in zip(low_table, low_pops):
            packed[low_pop + high_pop] += (low_lanes << shift) + high_lanes
    codec = Lanes(bits, row * row)
    for total in packed:
        counts = codec.unpack(total)
        yield [counts[s:s + row] for s in range(0, row * row, row)]


def _class_weights(alpha, beta, p: int) -> list:
    """beta^r alpha^(p-r) for r = 0..p, the weight of each class of paths to p.

    Powers by repeated multiplication: ``Poly2`` has no ``**``.
    """
    one = ring_of(alpha).one
    pow_a, pow_b = [one], [one]
    for _ in range(p):
        pow_a.append(pow_a[-1] * alpha)
        pow_b.append(pow_b[-1] * beta)
    return [pow_b[r] * pow_a[p - r] for r in range(p + 1)]


def _weigh(by_r, weights, zero):
    """Sum over the classes r of by_r[r] paths of weight weights[r]."""
    return sum((count * weight for count, weight in zip(by_r, weights)
                if count), zero)


def twiston_energy(n: int, q: int, p: int) -> int:
    """p-wise interaction energy of n twistons, q of them Moebius-like.

    Energies are +1 (orientable) except for the first q particles at -1;
    the answer is the p-th elementary symmetric function of the energies,
    summed over all C(n,p) subsets.  The 0-energy is 1 by convention.
    The first call at (n, p) sweeps the subsets once for every q (see
    :func:`_twiston_row`); later calls at that (n, p) read the kept row.
    Orders above ``DEFAULT_ORDER_BOUND`` are refused, since the row holds
    n + 1 energies even where C(n,p) is small.
    """
    if not (0 <= p <= n and 0 <= q <= n):
        raise ValueError("p and q must lie in 0..n")
    require_enumerable(n, p)
    require_order(n, "twiston row")
    return _twiston_row(n, p)[q]


@lru_cache(maxsize=64)
def _twiston_row(n: int, p: int) -> tuple:
    """The energies E_0..E_n of the p-subsets of range(n), by one sweep.

    A subset c_1 < ... < c_p has an odd number of members below q exactly
    when q lies in (c_1, c_2] u (c_3, c_4] u ...  So marking +1 at each
    member of odd rank and -1 at each of even rank, the prefix sum of the
    marks below q counts the subsets of product -1, and E_q is the number
    of subsets, counted by the sweep, less twice that.
    """
    marks = [0] * n
    subsets = 0
    for subsets, members in enumerate(combinations(range(n), p), 1):
        for m in members[::2]:
            marks[m] += 1
        for m in members[1::2]:
            marks[m] -= 1
    return tuple(subsets - 2 * odd for odd in accumulate(marks, initial=0))


def partition_check(n: int) -> CheckReport:
    """Every one of the 2^n words lands at exactly one position.

    The words are swept as n-bit integers, a set bit for each R, and
    counted by their position p, the number of R's: cell (p,) compares
    that count with C(n,p).
    """
    if not 0 <= n <= ENUM_BOUND_NUMERIC:
        raise ValueError(f"order {n} is outside the 2^n enumeration bound "
                         f"0..{ENUM_BOUND_NUMERIC}")
    by_position = Counter(map(int.bit_count, range(2 ** n)))
    return check_cells([("paths to p = C(n,p)", vector_cells(
        [by_position[p] for p in range(n + 1)],
        [comb(n, p) for p in range(n + 1)]))], n=n)
