"""Binary subspaces, weight characters, and the MacWilliams transform.

Vectors of Z_2^n are packed into Python ints (bit i = coordinate i); a
subspace is kept as a reduced-row-echelon basis, which makes equality of
subspaces structural.  The weight character of a subspace W counts its
vectors by Hamming weight; the MacWilliams identity says the Krawtchouk
matrix turns the character of W into 2^dim(W) times the character of the
orthogonal complement:

    2^dim(W) * char(W-perp) = K^(n) char(W)

The scaling constant 2^dim(W) = card(W) is forced: already for
W = span{e1} in Z_2^2 one has K char(W) = 2 char(W-perp) while
dim(W-perp) = 1, so a dimension factor cannot be right in general.

A character counts every vector of W, bit-sliced: the 2^BLOCK combinations
of the first BLOCK basis rows are the bit positions of one big int per
coordinate, and for each vector of the Gray-code walk of the remaining rows
a ripple-carry adder sums those ints into the binary weight of every
position at once; the popcount of the positions of each weight is its
count.  No closed form and nothing of K enters, so the identity checks the
Krawtchouk matrix against an independent count.  One MacWilliams check
computes W-perp, both characters and K char(W) once, and checks the
identities that share them.
"""

from __future__ import annotations

from collections import namedtuple

from .core import k_reference
from .matrix import CheckReport, check_cells, vector_cells
from .spectral import binomial_vector

ENUM_BOUND = 24   # 2^dim enumeration
CHECK_BOUND = 16  # ambient dimension for the MacWilliams check
BLOCK = 12        # basis rows whose 2^BLOCK combinations are a plane's bits


def vector_from_bits(bits: str) -> int:
    """Parse '110' (coordinate 1 first) into a packed vector."""
    if not bits or any(c not in "01" for c in bits):
        raise ValueError(f"bad bitstring {bits!r}")
    value = 0
    for i, c in enumerate(bits):
        if c == "1":
            value |= 1 << i
    return value


def vector_to_bits(value: int, n: int) -> str:
    return "".join("1" if value >> i & 1 else "0" for i in range(n))


def _rref(vectors, n: int):
    """Reduced row echelon basis over GF(2), rows as packed ints.

    A row's pivot is its lowest set bit, and no other row holds it.  A new
    vector reduced by every pivot has a pivot of its own, below the set
    bits it clears from the rows that hold it, so one pass per vector
    keeps the basis reduced; the rows are sorted by pivot once at the end.
    """
    basis = []
    for vec in vectors:
        if vec >> n:
            raise ValueError(f"vector 0b{vec:b} does not fit in {n} bits")
        for row in basis:
            if vec & (row & -row):
                vec ^= row
        if vec:
            pivot = vec & -vec
            basis = [row ^ vec if row & pivot else row for row in basis]
            basis.append(vec)
    return tuple(sorted(basis, key=lambda r: r & -r))


class BinarySubspace(namedtuple("BinarySubspace", "n basis")):
    """Subspace of Z_2^n held as a canonical rref basis of packed vectors."""

    __slots__ = ()

    @property
    def dim(self) -> int:
        return len(self.basis)

    def vectors(self):
        """All 2^dim elements, by Gray-code walk over basis combinations."""
        if self.dim > ENUM_BOUND:
            raise ValueError(f"enumeration bound is dim <= {ENUM_BOUND}")
        basis = self.basis  # a local: a namedtuple field is a slow lookup
        current = 0
        yield 0
        for counter in range(1, 2 ** self.dim):
            flip = (counter & -counter).bit_length() - 1
            current ^= basis[flip]
            yield current

    def __str__(self):
        rows = ", ".join(vector_to_bits(v, self.n) for v in self.basis)
        return f"span{{{rows}}} in Z2^{self.n}"


def subspace_from(vectors, n: int | None = None) -> BinarySubspace:
    """Build the span; accepts packed ints or '0101' strings."""
    packed = []
    strings = []
    width = 0
    for vec in vectors:
        if isinstance(vec, str):
            strings.append(vec)
            width = max(width, len(vec))
            packed.append(vector_from_bits(vec))
        else:
            packed.append(int(vec))
            width = max(width, packed[-1].bit_length())
    if n is None:
        n = width
    if n <= 0:
        raise ValueError("ambient dimension must be positive")
    for bits in strings:
        if len(bits) > n:
            raise ValueError(f"bitstring {bits!r} is longer than n = {n}")
    return BinarySubspace(n, _rref(packed, n))


def complement(space: BinarySubspace) -> BinarySubspace:
    """Orthogonal complement under the mod-2 dot product."""
    n = space.n
    pivots = [(row & -row).bit_length() - 1 for row in space.basis]
    free = [i for i in range(n) if i not in pivots]
    kernel = []
    for f in free:
        vec = 1 << f
        # solve the pivot coordinates so every basis row dots to zero
        for row, piv in zip(space.basis, pivots):
            if (vec & row).bit_count() % 2:
                vec ^= 1 << piv
        kernel.append(vec)
    return BinarySubspace(n, _rref(kernel, n))


def weight_character(space: BinarySubspace) -> list:
    """counts[i] = number of vectors of the subspace of Hamming weight i.

    Bit-sliced: the 2^BLOCK combinations of the first BLOCK basis rows are
    the bit positions of one plane per coordinate, built once by doubling
    (bit c of plane i is coordinate i of combination c).  For each vector
    of the span of the other rows, in Gray-code order, the planes of its
    set coordinates are complemented and all planes are added, position by
    position, into binary digits by a ripple-carry adder; splitting the
    positions by digit gives the mask of each weight, and its popcount is
    that weight's count.  Every vector is still one position counted, and
    memory stays O(n 2^BLOCK) bits.
    """
    if space.dim > ENUM_BOUND:
        raise ValueError(f"enumeration bound is dim <= {ENUM_BOUND}")
    n = space.n
    planes = [0] * n
    width = 1
    for row in space.basis[:BLOCK]:
        ones = (1 << width) - 1
        planes = [p | (p ^ ones if row >> i & 1 else p) << width
                  for i, p in enumerate(planes)]
        width <<= 1
    full = (1 << width) - 1
    # split by the top digit first: few weights reach it, so few masks split
    top = range(n.bit_length() - 1, -1, -1)
    counts = [0] * (n + 1)
    for high in BinarySubspace(n, space.basis[BLOCK:]).vectors():
        digits = [0] * n.bit_length()
        for i, x in enumerate(planes):
            if high >> i & 1:
                x ^= full
            k = 0
            while x:
                s = digits[k]
                digits[k], x = s ^ x, s & x
                k += 1
        masks = [(0, full)]
        for k in top:
            digit = digits[k]
            split = []
            for w, mask in masks:
                on = mask & digit
                if on:
                    split.append((w | 1 << k, on))
                if on != mask:
                    split.append((w, mask ^ on))
            masks = split
        for w, mask in masks:
            counts[w] += mask.bit_count()
    return counts


MACWILLIAMS = "2^dim(W) char(W-perp) = K char(W)"


def macwilliams_characters(space: BinarySubspace) -> tuple:
    """char(W), char(W-perp) and the report of :func:`macwilliams_check`.

    Each character is counted once, for the check and for its caller.
    """
    n = space.n
    _refuse_above_check_bound(n)
    perp = complement(space)
    k = k_reference(n)
    char = weight_character(space)
    perp_char = weight_character(perp)
    image = k.mul_vector(char)
    report = check_cells([
        (MACWILLIAMS, _macwilliams_cells(space.dim, perp_char, image)),
        ("dim W + dim W-perp = n", [(None, space.dim + perp.dim, n)]),
        ("double complement", [(None, complement(perp), space)]),
        ("K (K char) = 2^n char",
         vector_cells(k.mul_vector(image), [2 ** n * c for c in char])),
    ], n=n)
    return char, perp_char, report


def macwilliams_check(space: BinarySubspace) -> CheckReport:
    """2^dim(W) char(W-perp) = K char(W), entrywise exact.

    The same W-perp, char(W) and K char(W) then check, in this order,
    dim W + dim W-perp = n, that W-perp-perp = W, and K (K char) = 2^n char,
    the involution on the character.
    """
    return macwilliams_characters(space)[2]


def _refuse_above_check_bound(n: int):
    if n > CHECK_BOUND:
        raise ValueError(f"MacWilliams check bound is n <= {CHECK_BOUND}")


def _macwilliams_cells(dim: int, perp_char: list, image: list):
    """2^dim(W) char(W-perp) against image = K char(W)."""
    return vector_cells([2 ** dim * c for c in perp_char], image)


def coordinate_subspace_note(space: BinarySubspace) -> CheckReport:
    """Axis-spanned subspaces reproduce the binomial transform.

    For W spanned by standard basis vectors, char(W) is the truncated
    binomial vector b^(dim W) up to coordinate relabeling, and the
    MacWilliams identity collapses to K b^(k) = 2^k b^(n-k).
    """
    if any(row.bit_count() != 1 for row in space.basis):
        raise ValueError("subspace is not spanned by standard basis vectors")
    k = space.dim
    n = space.n
    _refuse_above_check_bound(n)
    char = weight_character(space)
    image = k_reference(n).mul_vector(char)
    return check_cells([
        ("char(W) = b^(dim W)", vector_cells(char, binomial_vector(n, k))),
        ("K b^(k) = 2^k b^(n-k)",
         vector_cells(image, [2 ** k * x for x in binomial_vector(n, n - k)])),
        (MACWILLIAMS, _macwilliams_cells(
            k, weight_character(complement(space)), image)),
    ], n=n)


def random_subspace(rng, n: int) -> BinarySubspace:
    """Span of a random number of random vectors, possibly trivial."""
    count = rng.randint(0, n)
    vectors = [rng.getrandbits(n) for _ in range(count)]
    return subspace_from(vectors, n)
