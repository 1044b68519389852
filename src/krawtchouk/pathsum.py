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
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import comb

from .matrix import Matrix
from .rings import ring_of

ENUM_BOUND_NUMERIC = 16   # 2^n words; n above this is refused
ENUM_BOUND_SYMBOLIC = 12
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


def path_weight(word: str, q: int, alpha, beta):
    """Weight of one path: beta per R in the first q steps, alpha per R after."""
    if q > len(word):
        raise ValueError(f"quantum depth {q} exceeds word length {len(word)}")
    weight = ring_of(alpha).one
    for i, letter in enumerate(word):
        if letter == "R":
            weight = weight * (beta if i < q else alpha)
        elif letter != "L":
            raise ValueError(f"bad letter {letter!r} in path word")
    return weight


def words_to(n: int, p: int):
    """All words of length n with exactly p letters R, lexicographically.

    Words compare with L < R, so the smallest word pushes its R's to the
    end; that is exactly the reverse of the position-tuple lex order that
    ``combinations`` yields.  The bound is checked when called, not when
    the first word is drawn.
    """
    require_enumerable(n, p)
    return (_word(n, positions)
            for positions in reversed(list(combinations(range(n), p))))


def _word(n: int, positions) -> str:
    letters = ["L"] * n
    for i in positions:
        letters[i] = "R"
    return "".join(letters)


@dataclass(frozen=True)
class PathEnsemble:
    """The C(n,p) paths from the apex to position p, with phase parameters."""

    n: int
    p: int
    q: int
    alpha: object
    beta: object

    def __post_init__(self):
        if not (0 <= self.p <= self.n and 0 <= self.q <= self.n):
            raise ValueError("p and q must lie in 0..n")

    @property
    def count(self) -> int:
        return comb(self.n, self.p)

    def words(self):
        return words_to(self.n, self.p)

    def total_weight(self):
        total = ring_of(self.alpha).zero
        for word in self.words():
            total = total + path_weight(word, self.q, self.alpha, self.beta)
        return total


def path_sum(n: int, p: int, q: int, alpha=1, beta=-1):
    """Sum of path weights over all words reaching p; equals K^(n)_{pq}(a,b)."""
    return PathEnsemble(n, p, q, alpha, beta).total_weight()


def oracle_matrix(n: int, alpha=1, beta=-1) -> Matrix:
    """Full (n+1) x (n+1) matrix of path sums by one sweep over all 2^n words.

    Each word contributes its prefix-product weight to every column at once,
    so the sweep costs O(2^n * n) ring operations.
    """
    ring = ring_of(alpha)
    bound = ENUM_BOUND_SYMBOLIC if ring.name == "poly2" else ENUM_BOUND_NUMERIC
    if n > bound:
        raise ValueError(
            f"order {n} exceeds the 2^n enumeration bound {bound}")
    zero, one = ring.zero, ring.one
    pow_a = [one]
    pow_b = [one]
    for _ in range(n):
        pow_a.append(pow_a[-1] * alpha)
        pow_b.append(pow_b[-1] * beta)
    cells = [[zero] * (n + 1) for _ in range(n + 1)]
    for counter in range(2 ** n):
        # bit n-1-i of the counter is step i, L=0 < R=1: lexicographic order
        p = counter.bit_count()
        row = cells[p]
        r_seen = 0  # right steps inside the quantum window so far
        row[0] = row[0] + pow_b[0] * pow_a[p]
        for i in range(n):
            if (counter >> (n - 1 - i)) & 1:
                r_seen += 1
            row[i + 1] = row[i + 1] + pow_b[r_seen] * pow_a[p - r_seen]
    return Matrix(ring, cells)


def k_pathsum(n: int):
    """The classical matrix by exhaustive enumeration, tagged PathSumOracle."""
    from .core import KrawtchoukMatrix

    return KrawtchoukMatrix(n, oracle_matrix(n, 1, -1), "PathSumOracle")


def twiston_energy(n: int, q: int, p: int) -> int:
    """p-wise interaction energy of n twistons, q of them Moebius-like.

    Energies are +1 (orientable) except for the first q particles at -1;
    the answer is the p-th elementary symmetric function of the energies,
    summed over all C(n,p) subsets.  The 0-energy is 1 by convention.
    """
    if not (0 <= p <= n and 0 <= q <= n):
        raise ValueError("p and q must lie in 0..n")
    require_enumerable(n, p)
    energies = [-1] * q + [1] * (n - q)
    total = 0
    for subset in combinations(range(n), p):
        product = 1
        for i in subset:
            product *= energies[i]
        total += product
    return total


def partition_check(n: int) -> bool:
    """Every one of the 2^n words lands at exactly one position."""
    return sum(PathEnsemble(n, p, 0, 1, -1).count
               for p in range(n + 1)) == 2 ** n
