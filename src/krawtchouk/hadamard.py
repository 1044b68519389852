"""Sylvester matrices, binary-weight reduction, and the Krawtchouk pyramid.

The n-fold Kronecker power of the 2x2 Hadamard matrix disperses the
symmetric structure across 2^n indices; grouping rows and columns by the
binary weight of their index (the popcount) and summing the classes
collapses it back to the (n+1) x (n+1) symmetric Krawtchouk matrix.  The
2^n x 2^n intermediate is never stored: H^kron(n) factors into n butterfly
stages (the fast Walsh-Hadamard transform), applied in place, block by
block.  All n+1 weight-class indicators ride through one O(n 2^n)
transform as lanes of one Python integer per entry (the codec of
:mod:`krawtchouk.lanes`), so a single pass gives every column of class
sums, exactly.

Stacking the Krawtchouk matrices by order forms a pyramid whose plane
sections are Pascal-like triangles.  The four section families and their
local rules:

    west-down   rows = column k of K^(k), K^(k+1), ...   new = left + right
    east-down   rows = column r of K^(k+r)               new = right - left
    north-up    rows = row k of K^(k), K^(k+1), ...      up  = (left + right)/2
    south-up    rows = row n-k of K^(n)                  up  = (left - right)/2

The down rules are seeded once and propagate forever; the up rules divide
by 2, and the divisions are asserted to be exact (adjacent Krawtchouk
entries always agree in parity).  :func:`k_pyramid` grows K level by level
through the two down rules, on columns packed by the lane codec, where
each rule is one shift and one add.
"""

from __future__ import annotations

from math import comb
from operator import add, neg, sub

from .core import KrawtchoukMatrix, genfunc_column, k_entry, k_reference
from .generalized import cross_cells, padded_entries, trace_cells
from .lanes import Lanes, lane_bits
from .matrix import CheckReport, Matrix, check_cells
from .rings import ZZ

REDUCE_BOUND = 16  # 2^n-entry lists, one packed transform

BLOCK_BITS = 10  # 2^10 entries per block of the in-place transform

DIRECTIONS = ("west-down", "east-down", "north-up", "south-up")


def weight_labels(n: int) -> list:
    """The binary weights w(k), k = 0..2^n - 1, as a list.

    w(0) = 0 and w(2^m + k) = w(k) + 1.
    """
    if not 0 <= n <= REDUCE_BOUND:
        raise ValueError(f"weight labeling bound is 0..{REDUCE_BOUND}")
    labels = [0]
    for _ in range(n):
        labels = labels + [w + 1 for w in labels]
    return labels


def _rotating_butterflies(part: list) -> list:
    """Transform every index bit of a power-of-two-long list, in place.

    Each stage applies the 2x2 Hadamard matrix to the top index bit and
    rotates it to the bottom: with halves a, b, the even slots receive
    a + b and the odd slots a - b.  After one stage per bit every bit is
    back in place.  The halves of the last stage die on return.
    """
    half = len(part) // 2
    for _ in range(half.bit_length()):
        a, b = part[:half], part[half:]
        part[0::2] = map(add, a, b)
        part[1::2] = map(sub, a, b)
    return part


def walsh_hadamard(vec) -> list:
    """H^kron(n) times a length-2^n integer vector, in n butterfly stages.

    Entry a of the result is sum_b (-1)^popcount(a & b) vec[b]; ``vec`` is
    left untouched.  The stages run in place on one list, in two phases:
    each block of 2^BLOCK_BITS entries (the whole vector, if shorter) gets
    rotating butterflies on its slice, for its low index bits; then each
    higher bit h pairs whole blocks x at j and y at j + h, which become
    x + y and x - y.  Only one block's entries are ever alive in two
    generations at once.
    """
    size = len(vec)
    if size < 1 or size & (size - 1):
        raise ValueError(f"vector length {size} is not a power of two")
    out = list(vec)
    block = min(size, 1 << BLOCK_BITS)
    for j in range(0, size, block):
        out[j:j + block] = _rotating_butterflies(out[j:j + block])
    h = block
    while h < size:
        for base in range(0, size, 2 * h):
            for j in range(base, base + h, block):
                x, y = out[j:j + block], out[j + h:j + h + block]
                out[j:j + block] = map(add, x, y)
                out[j + h:j + h + block] = map(sub, x, y)
        h *= 2
    return out


def reduce_to_symmetric(n: int) -> Matrix:
    """Collapse H^kron(n) by weight classes; equals the symmetric matrix.

    S_{pq} = sum of H^kron entries over rows of weight p, columns of
    weight q.  All n+1 weight-class indicators go through one transform as
    lanes of one integer per entry: entry b is X^{w(b)} with X = 2^L wide
    enough for every |S_pq| <= C(n,p) C(n,q) <= C(n, n/2)^2 (the width rule
    of :func:`krawtchouk.lanes.lane_bits`), so lane q of row a's image is
    that row's sum over the weight-q columns.  Summing the image over each
    weight-p class of rows and decoding the sum's n+1 lanes gives row p.
    The width rule keeps those digits right; the decode raises only on a
    carry out of the top lane, and the checks catch the rest.  Every
    Sylvester entry still enters, in factored form; the route shares no
    code with the generating function, so it stays an independent
    construction of the symmetric matrix.
    """
    if not 0 <= n <= REDUCE_BOUND:
        raise ValueError(f"reduction bound is 0..{REDUCE_BOUND}")
    labels = weight_labels(n)
    lanes = Lanes(lane_bits(comb(n, n // 2) ** 2), n + 1)
    powers = [1 << s for s in lanes.shifts]
    image = walsh_hadamard([powers[w] for w in labels])
    sums = [0] * (n + 1)
    for w, x in zip(labels, image):
        sums[w] += x
    del image  # free the packed entries before the result is built
    rows = [lanes.unpack(total) for total in sums]
    return Matrix(ZZ, rows)


# ---------------------------------------------------------------------------
# pyramid identities
# ---------------------------------------------------------------------------

def k_pyramid(n: int) -> KrawtchoukMatrix:
    """Krawtchouk matrix grown level by level through the pyramid rules.

    From an order-m matrix, column 0 of order m+1 follows by the Pascal
    rule P (new[i] = old[i-1] + old[i]) and column q+1 by the signed rule
    S (new[i] = old_q[i] - old_q[i-1] applied to column q of order m), so
    the whole pyramid unfolds from the apex [1] with no binomials computed.

    By induction from the apex, column q of level m is S^q P^(m-q) [1], and
    P and S commute.  Negating the odd entries swaps P and S, which gives
    the column reflection K[p][m-q] = (-1)^p K[p][q].  So level m keeps
    only columns 0..m//2, each at full height and packed into one int by
    the codec of :mod:`krawtchouk.lanes`: entry i sits in lane i, so P is
    c + (c << L) and S is c - (c << L), exact integer identities that cost
    one shift and one add per kept column, not one addition per entry.
    The lanes are L = lane_bits(2^n) bits wide, because every entry of
    level m <= n is at most C(m, p) <= 2^m in size (Vandermonde: |K[p][q]|
    <= sum_k C(q, k) C(m-q, p-k) = C(m, p)); the width is a bound, so
    still no binomial is computed.  Each of the n//2 + 1 columns of level
    n is unpacked once into n + 1 entries (the decode raises only on a
    carry out of the top lane), and the other columns follow by the
    column reflection.
    """
    if n < 0:
        raise ValueError("order must be non-negative")
    lanes = Lanes(lane_bits(1 << n), n + 1)
    bits = lanes.bits
    cols = [1]
    for m in range(n):
        first = cols[0]
        kept = cols if m % 2 else cols[:-1]
        cols = [first + (first << bits)]
        cols += [c - (c << bits) for c in kept]
    cols = [lanes.unpack(c) for c in cols]
    for q in range(n - n // 2 - 1, -1, -1):
        col = cols[q].copy()
        col[1::2] = map(neg, col[1::2])
        cols.append(col)
    return KrawtchoukMatrix(n, Matrix(ZZ, zip(*cols)), "PyramidRecurrence")


def pyramid_cross_check(n: int) -> CheckReport:
    """Cross identities between pyramid level n >= 1 and its two neighbours.

    With E(n,i,j) the order-n entry (zero out of range):

      (i)   E(n,i+1,j) + E(n,i,j) = E(n+1,i+1,j)
      (ii)  E(n,i+1,j) - E(n,i,j) = E(n+1,i+1,j+1)
      (iii) E(n,i,j) + E(n,i,j+1) = 2 E(n-1,i,j)
      (iv)  E(n,i,j) - E(n,i,j+1) = 2 E(n-1,i-1,j)
      (v)   E(n,i+1,j) = E(n,i,j) + E(n,i,j+1) + E(n,i+1,j+1)

    (i)-(iv) are the cross identities that
    :func:`krawtchouk.generalized.general_cross_check` proves symbolically,
    at (alpha, beta) = (1, -1); there they are numbered (i), (ii), (iv),
    (iii).
    (v) is the square identity: of any four adjacent entries, the lower
    left is the sum of the other three (the classical specialization of the
    trace identity).  Both run on the reference matrices.
    """
    if n < 1:
        raise ValueError("cross identities need order >= 1")
    entry = padded_entries({m: k_reference(m) for m in (n - 1, n, n + 1)}, 0)
    return check_cells(
        cross_cells(entry, n, 1, -1)
        + [("trace identity", trace_cells(k_reference(n), 1, -1))], n=n)


def pyramid_plane(direction: str, depth: int, rows: int) -> tuple:
    """The rows of a triangular plane section, from its seed and local rule.

    Row r has depth + r + 1 entries.  Down planes start from a Krawtchouk
    column of order ``depth`` and apply the (signed) Pascal rule; up planes
    are built from the bottom row (a Krawtchouk matrix row) upwards by
    exact halving.  Row r of the result always equals the appropriate
    column/row of K^(depth + r), which is what the seeds guarantee and the
    tests pin.
    """
    if rows < 1:
        raise ValueError("need at least one row")
    if depth < 0:
        raise ValueError("depth must be non-negative")
    if direction in ("west-down", "east-down"):
        # seed: the last (west) or first (east) column of K^(depth); rule:
        # new[i] = old[i] + old[i-1] (west) or old[i] - old[i-1] (east)
        west = direction == "west-down"
        rule = add if west else sub
        out = [genfunc_column(depth, depth if west else 0)]
        for _ in range(rows - 1):
            out.append(list(map(rule, out[-1] + [0], [0] + out[-1])))
    elif direction in ("north-up", "south-up"):
        # seed: row depth (north) or n - depth (south) of K^(n), n = depth +
        # rows - 1; rule: up[i] = (old[i] + old[i+1]) / 2 (north) or
        # (old[i] - old[i+1]) / 2 (south)
        order = depth + rows - 1
        north = direction == "north-up"
        rule = add if north else sub
        p = depth if north else order - depth
        out = [[k_entry(order, p, q) for q in range(order + 1)]]
        for _ in range(rows - 1):
            totals = list(map(rule, out[-1], out[-1][1:]))
            if any(total % 2 for total in totals):
                raise AssertionError(
                    "parity broke: adjacent entries of a Krawtchouk row "
                    "always share parity")
            out.append([total // 2 for total in totals])
        out.reverse()
    else:
        raise ValueError(f"unknown direction {direction!r}; "
                         f"choose from {DIRECTIONS}")
    return tuple(tuple(r) for r in out)
