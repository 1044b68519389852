"""Dense immutable matrices over the exact scalar rings.

Shapes are small by numerical-linear-algebra standards ((n+1) x (n+1) with
n up to a few hundred, or 2^n x 2^n with n <= 10), so a matrix is a plain
tuple of tuples of scalars and every operation is exact in every ring.
The product has two paths, chosen by the ring:

* over ``ZZ`` row i of AB is sum_k a_ik row_k(B), or column j is
  sum_k b_kj col_k(A), whichever takes fewer multiply-adds.  When
  the factor whose entries scale has few nonzeros (diagonal, skew,
  tridiagonal), the scaled rows are added as plain lists of ints;
  otherwise each is packed into one int by the lane codec of
  :mod:`krawtchouk.lanes`, so that one big-int multiply-add does a whole
  row.  A count of entries touched picks the route (see
  :meth:`Matrix.mul`), not a tuned threshold;
* over every other ring each cell sums over the nonzero positions of the
  sparser of its row and column, so diagonal, banded and skew factors
  stay O(n^2).

Identities are compared cell by cell through :func:`check_cells`, the one
report path: two sides of different shapes are one failed cell, not an
error.
"""

from __future__ import annotations

import operator
from collections import namedtuple
from itertools import chain, product, repeat

from .lanes import Lanes, lane_bits
from .rings import CC, Ring, RINGS, ZZ, ring_of


def _plain_row(row, b) -> list:
    """sum_k row[k] b[k] over the nonzero row[k], on plain lists of ints."""
    terms = [(x, b_row) for x, b_row in zip(row, b) if x]
    if not terms:
        return [0] * len(b[0])
    x, b_row = terms[0]
    out = list(map(operator.mul, repeat(x), b_row))
    for x, b_row in terms[1:]:
        out = list(map(operator.add, out,
                       map(operator.mul, repeat(x), b_row)))
    return out


class Matrix:
    """Immutable dense matrix; all entries belong to one ring."""

    __slots__ = ("ring", "data", "rows", "cols")

    def __init__(self, ring: Ring, rows):
        data = tuple(tuple(row) for row in rows)
        if not data or not data[0]:
            raise ValueError("matrix must have at least one row and column")
        width = len(data[0])
        if any(len(row) != width for row in data):
            raise ValueError("ragged rows")
        self.ring = ring
        self.data = data
        self.rows = len(data)
        self.cols = width

    # -- constructors ------------------------------------------------------

    @staticmethod
    def from_rows(rows) -> "Matrix":
        return Matrix(ring_of(rows[0][0]), rows)

    @staticmethod
    def identity(n: int, ring: Ring = ZZ) -> "Matrix":
        return Matrix(ring, [[ring.one if i == j else ring.zero
                              for j in range(n)] for i in range(n)])

    @staticmethod
    def zeros(rows: int, cols: int, ring: Ring = ZZ) -> "Matrix":
        return Matrix(ring, [[ring.zero] * cols for _ in range(rows)])

    @staticmethod
    def diag(values, ring: Ring | None = None) -> "Matrix":
        values = list(values)
        if ring is None:
            ring = ring_of(values[0])
        n = len(values)
        return Matrix(ring, [[values[i] if i == j else ring.zero
                              for j in range(n)] for i in range(n)])

    @staticmethod
    def skewdiag(values, ring: Ring | None = None) -> "Matrix":
        """Square matrix with values[i] at position (i, n-i), zero elsewhere."""
        values = list(values)
        if ring is None:
            ring = ring_of(values[0])
        n = len(values)
        return Matrix(ring, [[values[i] if i + j == n - 1 else ring.zero
                              for j in range(n)] for i in range(n)])

    # -- access ------------------------------------------------------------

    def __getitem__(self, key):
        i, j = key
        return self.data[i][j]

    def row(self, i):
        return list(self.data[i])

    def col(self, j):
        return [self.data[i][j] for i in range(self.rows)]

    @property
    def shape(self):
        return (self.rows, self.cols)

    # -- arithmetic --------------------------------------------------------

    def _check_ring(self, other: "Matrix"):
        if self.ring != other.ring:
            raise ValueError(
                f"ring mismatch: {self.ring.name} vs {other.ring.name}")

    def mul(self, other: "Matrix") -> "Matrix":
        """Exact product.

        Over ``ZZ``, row i of AB is sum_k a_ik row_k(B), one multiply-add
        on a row of cols(B) entries per nonzero a_ik.  When
        nnz(B) rows(A) < nnz(A) cols(B), the product is (B^T A^T)^T
        instead: column j of AB is sum_k b_kj col_k(A), one multiply-add on
        rows(A) entries per nonzero b_kj.  Call the factor whose entries
        scale (A, or B^T after the flip) a and the one whose rows are
        added b.  If nnz(a) <= rows(a) + rows(b), the rows of b are added
        as plain lists of ints: nnz(a) cols(b) element multiply-adds.
        Otherwise every row of b is packed into one int
        (:mod:`krawtchouk.lanes`), one big-int multiply-add per nonzero of
        a, and the result rows are unpacked: (rows(a) + rows(b)) cols(b)
        lane writes and reads, against which the multiply-adds are cheap.
        The lanes hold the largest row abs-sum of a times the largest |b|,
        which bounds every entry of the result.  So a diagonal, skew or
        tridiagonal factor costs O(n^2) plain operations, and two dense
        factors pack.  Over every other ring each cell sums over the
        nonzero positions of the sparser of its row of A and its column of
        B, so diagonal, banded and skew factors cost O(n^2) and dense
        factors O(n^3).
        """
        self._check_ring(other)
        if self.cols != other.rows:
            raise ValueError(
                f"dimension mismatch: {self.shape} @ {other.shape}")
        if self.ring == ZZ:
            return self._packed_mul(other)
        zero = self.ring.zero
        cols = list(zip(*other.data))
        row_terms = [[(k, x) for k, x in enumerate(row) if x != zero]
                     for row in self.data]
        col_terms = [[(k, y) for k, y in enumerate(col) if y != zero]
                     for col in cols]
        out = [[sum([x * col[k] for k, x in a_terms], zero)
                if len(a_terms) <= len(b_terms)
                else sum([row[k] * y for k, y in b_terms], zero)
                for col, b_terms in zip(cols, col_terms)]
               for row, a_terms in zip(self.data, row_terms)]
        return Matrix(self.ring, out)

    def _packed_mul(self, other: "Matrix") -> "Matrix":
        """Integer product by the rows of ``other``, or by the columns of
        ``self`` when that takes fewer multiply-adds, each added as a plain
        list or packed into lanes, whichever touches fewer entries."""
        a, b = self.data, other.data
        nnz_a = self.rows * self.cols - sum(row.count(0) for row in a)
        nnz_b = other.rows * other.cols - sum(row.count(0) for row in b)
        # the rows of AB cost nnz(A) multiply-adds on cols(B) entries, its
        # columns, as the rows of B^T A^T, nnz(B) on rows(A) entries
        flip = nnz_b * self.rows < nnz_a * other.cols
        if flip:
            a, b, nnz_a = tuple(zip(*b)), tuple(zip(*a)), nnz_b
        # packing writes a lane per entry of b and unpacking reads one per
        # entry of the result; plain rows touch nnz(a) entries per column
        if nnz_a <= len(a) + len(b):
            out = [_plain_row(row, b) for row in a]
        else:
            bound = (max(sum(map(abs, row)) for row in a)
                     * max(max(map(abs, row)) for row in b))
            lanes = Lanes(lane_bits(bound), len(b[0]))
            packed = [lanes.pack(row) for row in b]
            out = [lanes.unpack(sum([x * p for x, p in zip(row, packed) if x]))
                   for row in a]
        return Matrix(ZZ, zip(*out) if flip else out)

    __matmul__ = mul

    def add(self, other: "Matrix") -> "Matrix":
        self._check_ring(other)
        if self.shape != other.shape:
            raise ValueError(f"shape mismatch: {self.shape} + {other.shape}")
        return Matrix(self.ring, [[x + y for x, y in zip(r1, r2)]
                                  for r1, r2 in zip(self.data, other.data)])

    __add__ = add

    def sub(self, other: "Matrix") -> "Matrix":
        return self.add(other.scale(-1))

    __sub__ = sub

    def scale(self, c) -> "Matrix":
        return Matrix(self.ring, [[c * x for x in row] for row in self.data])

    def transpose(self) -> "Matrix":
        return Matrix(self.ring, list(zip(*self.data)))

    @property
    def T(self) -> "Matrix":
        return self.transpose()

    def kron(self, other: "Matrix") -> "Matrix":
        """Kronecker product; entry (p*rB + i, q*cB + j) = A[p,q]*B[i,j]."""
        self._check_ring(other)
        out = []
        for arow in self.data:
            for brow in other.data:
                out.append([a * b for a in arow for b in brow])
        return Matrix(self.ring, out)

    def mul_vector(self, vec):
        """Matrix times column vector (a plain list of scalars)."""
        if len(vec) != self.cols:
            raise ValueError(f"vector length {len(vec)} != cols {self.cols}")
        zero = self.ring.zero
        return [sum(map(operator.mul, row, vec), zero) for row in self.data]

    def vector_mul(self, vec):
        """Row vector times matrix."""
        if len(vec) != self.rows:
            raise ValueError(f"vector length {len(vec)} != rows {self.rows}")
        zero = self.ring.zero
        return [sum(map(operator.mul, vec, col), zero)
                for col in zip(*self.data)]

    def map(self, fn, ring: Ring | None = None) -> "Matrix":
        """Entrywise map, optionally landing in another ring."""
        return Matrix(ring or self.ring,
                      [[fn(x) for x in row] for row in self.data])

    # -- comparison / display ----------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return self.ring is other.ring and self.data == other.data

    def __hash__(self):
        return hash((self.ring, self.data))

    def cells(self, other: "Matrix"):
        """((i, j), self[i, j], other[i, j]) row by row, for
        :func:`check_cells`.

        Two shapes that differ are the one unlocated cell
        (None, self.shape, other.shape), which fails.  Equal data gives no
        cells, compared as tuples in one pass, except over the complex
        ring: tuple equality takes an object as equal to itself, so a NaN
        would pass there, while the cell scan's ``!=`` fails it.
        """
        if self.shape != other.shape:
            return [(None, self.shape, other.shape)]
        if self.data == other.data and CC not in (self.ring, other.ring):
            return []
        return zip(product(range(self.rows), range(self.cols)),
                   chain.from_iterable(self.data),
                   chain.from_iterable(other.data))

    def __str__(self):
        return self.pretty()

    def __repr__(self):
        return f"Matrix({self.ring.name}, {self.rows}x{self.cols})"

    def pretty(self) -> str:
        cells = [[self.ring.fmt(x) for x in row] for row in self.data]
        widths = [max(len(cells[i][j]) for i in range(self.rows))
                  for j in range(self.cols)]
        lines = ["  ".join(c.rjust(w) for c, w in zip(row, widths))
                 for row in cells]
        return "\n".join(lines)

    # -- serialization -----------------------------------------------------

    def to_json(self) -> str:
        import json  # on demand: most runs never serialize, so import skips it

        payload = {
            "rows": self.rows,
            "cols": self.cols,
            "ring": self.ring.name,
            "entries": [[self.ring.fmt(x) for x in row] for row in self.data],
        }
        return json.dumps(payload)

    @staticmethod
    def from_json(text: str) -> "Matrix":
        import json

        payload = json.loads(text)
        ring = RINGS[payload["ring"]]
        entries = [[ring.parse(s) for s in row] for row in payload["entries"]]
        mat = Matrix(ring, entries)
        if mat.shape != (payload["rows"], payload["cols"]):
            raise ValueError("declared shape does not match entries")
        return mat

    def to_csv(self) -> str:
        return "\n".join(",".join(self.ring.fmt(x) for x in row)
                         for row in self.data) + "\n"

    @staticmethod
    def from_csv(text: str, ring: Ring = ZZ) -> "Matrix":
        rows = [[ring.parse(cell) for cell in line.split(",")]
                for line in text.strip().splitlines()]
        return Matrix(ring, rows)


class CheckReport(namedtuple("CheckReport", "ok n location lhs rhs note",
                              defaults=(None, None, "", "", ""))):
    """Outcome of one identity check with the first mismatch, if any.

    On a failure ``note`` names the identity, ``location`` indexes the
    first bad cell (None for a scalar identity or a shape mismatch) and
    ``lhs``/``rhs`` print its two sides.
    """

    __slots__ = ()

    def __bool__(self):
        return self.ok


def check_cells(checks, n=None) -> CheckReport:
    """The first mismatching cell of named identity checks, in scan order.

    ``checks`` yields (name, cells) pairs and each ``cells`` yields
    (location, lhs, rhs): an index tuple such as (i, j) for a matrix or (i,)
    for a vector, or None for a scalar identity or for two sides whose
    shapes or lengths differ, which :meth:`Matrix.cells` and
    :func:`vector_cells` give as one failed cell.  Cells compare with
    ``!=``, which is exact in every ring, complex floats included, and the
    report prints a mismatch with ``str`` under the name of its check.
    """
    for name, cells in checks:
        for location, lhs, rhs in cells:
            if lhs != rhs:
                return CheckReport(False, n=n, location=location,
                                   lhs=str(lhs), rhs=str(rhs), note=name)
    return CheckReport(True, n=n)


def vector_cells(lhs, rhs):
    """((i,), lhs[i], rhs[i]) for two sequences of one length.

    Two lengths that differ are the one unlocated cell
    (None, len(lhs), len(rhs)), which fails.
    """
    if len(lhs) != len(rhs):
        return [(None, len(lhs), len(rhs))]
    return zip(product(range(len(lhs))), lhs, rhs)


class SuiteReport:
    """Aggregate of a named verification suite, JSON-schema friendly."""

    def __init__(self, suite: str, n_max: int):
        self.suite = suite
        self.n_max = n_max
        self.failures = []

    @property
    def ok(self) -> bool:
        return not self.failures

    def record(self, report: CheckReport):
        """Keep a failed report, the first of each check and order."""
        if report.ok or any(f["check"] == report.note and f["n"] == report.n
                            for f in self.failures):
            return
        self.failures.append({
            "n": report.n,
            "check": report.note,
            "location": (None if report.location is None
                         else list(report.location)),
            "lhs": report.lhs,
            "rhs": report.rhs,
        })

    def to_dict(self):
        return {"suite": self.suite, "n_max": self.n_max,
                "pass": self.ok, "failures": self.failures}
