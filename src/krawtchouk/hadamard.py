"""Sylvester matrices, binary-weight reduction, and the Krawtchouk pyramid.

The n-fold Kronecker power of the 2x2 Hadamard matrix disperses the
symmetric structure across 2^n indices; grouping rows and columns by the
binary weight of their index (the popcount) and summing the classes
collapses it back to the (n+1) x (n+1) symmetric Krawtchouk matrix.  The
2^n x 2^n intermediate is never stored: H^kron(n) factors into n butterfly
stages (the fast Walsh-Hadamard transform), so one O(n 2^n) transform of a
weight-class indicator gives a whole column of class sums, exactly, in
Python integers.

Stacking the Krawtchouk matrices by order forms a pyramid whose plane
sections are Pascal-like triangles.  The four section families and their
local rules:

    west-down   rows = column k of K^(k), K^(k+1), ...   new = left + right
    east-down   rows = column r of K^(k+r)               new = right - left
    north-up    rows = row k of K^(k), K^(k+1), ...      up  = (left + right)/2
    south-up    rows = row n-k of K^(n)                  up  = (left - right)/2

The down rules are seeded once and propagate forever; the up rules divide
by 2, and the divisions are asserted to be exact (adjacent Krawtchouk
entries always agree in parity).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb
from operator import add, sub

from .core import KrawtchoukMatrix, genfunc_column, k_entry, k_reference
from .generalized import cross_cells, padded_entries, trace_cells
from .matrix import CheckReport, Matrix, check_cells
from .rings import ZZ

REDUCE_BOUND = 16  # 2^n-entry lists, n + 1 transforms

DIRECTIONS = ("west-down", "east-down", "north-up", "south-up")


@dataclass(frozen=True)
class WeightLabeling:
    """Binary weights w(k) for k = 0..2^n - 1, built by the doubling rule."""

    n: int
    labels: tuple

    def classes(self):
        """index lists grouped by weight: classes()[p] = sorted w^{-1}(p)."""
        out = [[] for _ in range(self.n + 1)]
        for idx, w in enumerate(self.labels):
            out[w].append(idx)
        return out


def weight_labels(n: int) -> WeightLabeling:
    """w(0) = 0 and w(2^m + k) = w(k) + 1; cross-checked against popcount."""
    if not 0 <= n <= REDUCE_BOUND:
        raise ValueError(f"weight labeling bound is 0..{REDUCE_BOUND}")
    labels = [0]
    for _ in range(n):
        labels = labels + [w + 1 for w in labels]
    for idx in range(0, len(labels), max(1, len(labels) // 64)):
        if labels[idx] != idx.bit_count():
            raise AssertionError("doubling recursion disagrees with popcount")
    return WeightLabeling(n, tuple(labels))


def walsh_hadamard(vec) -> list:
    """H^kron(n) times a length-2^n integer vector, in n butterfly stages.

    Each stage applies the 2x2 Hadamard matrix to the top index bit and
    rotates it to the bottom: with halves a, b of the current list, the even
    slots receive a + b and the odd slots a - b.  After n stages every bit
    has been transformed once and is back in place, so entry a of the result
    is sum_b (-1)^popcount(a & b) vec[b].
    """
    size = len(vec)
    if size < 1 or size & (size - 1):
        raise ValueError(f"vector length {size} is not a power of two")
    half = size // 2
    out = list(vec)
    for _ in range(size.bit_length() - 1):
        a, b = out[:half], out[half:]
        out[0::2] = map(add, a, b)
        out[1::2] = map(sub, a, b)
    return out


def reduce_to_symmetric(n: int) -> Matrix:
    """Collapse H^kron(n) by weight classes; equals the symmetric matrix.

    S_{pq} = sum of H^kron entries over rows of weight p, columns of
    weight q.  H^kron(n) applied to the indicator of the weight-q class,
    by the butterfly factorisation, gives every row's sum over those
    columns; summing that image over each weight-p class of rows gives
    column q.  Every Sylvester entry still enters, in factored form; the
    route shares no code with the generating function, so it stays an
    independent construction of the symmetric matrix.
    """
    if not 0 <= n <= REDUCE_BOUND:
        raise ValueError(f"reduction bound is 0..{REDUCE_BOUND}")
    labeling = weight_labels(n)
    classes = labeling.classes()
    cols = []
    for q in range(n + 1):
        image = walsh_hadamard([int(w == q) for w in labeling.labels])
        cols.append([sum(map(image.__getitem__, rows)) for rows in classes])
    return Matrix(ZZ, [list(row) for row in zip(*cols)])


# ---------------------------------------------------------------------------
# pyramid identities
# ---------------------------------------------------------------------------

def k_pyramid(n: int) -> KrawtchoukMatrix:
    """Krawtchouk matrix grown level by level through the pyramid rules.

    From an order-m matrix, column 0 of order m+1 follows by the Pascal
    rule (new[i] = old[i-1] + old[i]) and column q+1 by the signed rule
    (new[i] = old_q[i] - old_q[i-1] applied to column q of order m), so the
    whole pyramid unfolds from the apex [1] with no binomials computed.
    """
    if n < 0:
        raise ValueError("order must be non-negative")
    cols = [[1]]
    for m in range(n):
        first = cols[0]
        grown = [[(first[i - 1] if i > 0 else 0)
                  + (first[i] if i <= m else 0) for i in range(m + 2)]]
        for q in range(m + 1):
            prev = cols[q]
            grown.append([(prev[i] if i <= m else 0)
                          - (prev[i - 1] if i > 0 else 0)
                          for i in range(m + 2)])
        cols = grown
    rows = [[cols[q][p] for q in range(n + 1)] for p in range(n + 1)]
    return KrawtchoukMatrix(n, Matrix(ZZ, rows), "PyramidRecurrence")


def pyramid_cross_check(n_max: int) -> CheckReport:
    """Cross identities between adjacent pyramid levels, orders 1..n_max.

    With E(n,i,j) the order-n entry (zero out of range):

      (i)   E(n,i+1,j) + E(n,i,j) = E(n+1,i+1,j)
      (ii)  E(n,i+1,j) - E(n,i,j) = E(n+1,i+1,j+1)
      (iii) E(n,i,j) + E(n,i,j+1) = 2 E(n-1,i,j)
      (iv)  E(n,i,j) - E(n,i,j+1) = 2 E(n-1,i-1,j)
      (v)   E(n,i+1,j) = E(n,i,j) + E(n,i,j+1) + E(n,i+1,j+1)

    (i)-(iv) are the cross identities of
    :func:`krawtchouk.generalized.general_cross_check` at
    (alpha, beta) = (1, -1), where they are numbered (i), (ii), (iv), (iii).
    (v) is the square identity: of any four adjacent entries, the lower
    left is the sum of the other three (the classical specialization of the
    trace identity).  Both run on the reference matrices.
    """
    if n_max < 2:
        raise ValueError("cross identities need n_max >= 2")
    entry = padded_entries({m: k_reference(m) for m in range(n_max + 2)}, 0)
    for n in range(1, n_max + 1):
        report = check_cells(
            cross_cells(entry, n, 1, -1)
            + [("trace identity", trace_cells(k_reference(n), 1, -1))], n=n)
        if not report.ok:
            break
    return report


@dataclass(frozen=True)
class PyramidPlane:
    """A triangular plane section; rows[r] has depth + r + 1 entries."""

    direction: str
    depth: int
    rows: tuple

    def to_csv(self) -> str:
        return "\n".join(",".join(str(x) for x in row)
                         for row in self.rows) + "\n"


def pyramid_plane(direction: str, depth: int, rows: int) -> PyramidPlane:
    """Generate a plane section from its seed and local rule.

    Down planes start from a Krawtchouk column of order ``depth`` and apply
    the (signed) Pascal rule; up planes are built from the bottom row (a
    Krawtchouk matrix row) upwards by exact halving.  Row r of the result
    always equals the appropriate column/row of K^(depth + r), which is
    what the seeds guarantee and the tests pin.
    """
    if rows < 1:
        raise ValueError("need at least one row")
    if depth < 0:
        raise ValueError("depth must be non-negative")
    if direction == "west-down":
        # seed: last column of K^(depth); rule: new[i] = old[i-1] + old[i]
        row = genfunc_column(depth, depth)
        out = [row]
        for _ in range(rows - 1):
            row = [(row[i - 1] if i > 0 else 0) + (row[i] if i < len(row) else 0)
                   for i in range(len(row) + 1)]
            out.append(row)
    elif direction == "east-down":
        # seed: first column of K^(depth); rule: new[i] = old[i] - old[i-1]
        row = [comb(depth, i) for i in range(depth + 1)]
        out = [row]
        for _ in range(rows - 1):
            row = [(row[i] if i < len(row) else 0) - (row[i - 1] if i > 0 else 0)
                   for i in range(len(row) + 1)]
            out.append(row)
    elif direction in ("north-up", "south-up"):
        top_order = depth + rows - 1
        if direction == "north-up":
            base = [k_entry(top_order, depth, q) for q in range(top_order + 1)]
        else:
            base = [k_entry(top_order, top_order - depth, q)
                    for q in range(top_order + 1)]
        out = [base]
        row = base
        for _ in range(rows - 1):
            nxt = []
            for i in range(len(row) - 1):
                total = row[i] + row[i + 1] if direction == "north-up" \
                    else row[i] - row[i + 1]
                if total % 2:
                    raise AssertionError(
                        "parity broke: adjacent entries of a Krawtchouk row "
                        "always share parity")
                nxt.append(total // 2)
            out.append(nxt)
            row = nxt
        out.reverse()
    else:
        raise ValueError(f"unknown direction {direction!r}; "
                         f"choose from {DIRECTIONS}")
    return PyramidPlane(direction, depth, tuple(tuple(r) for r in out))
