"""One lane codec: a list of small integers carried as one big integer.

Integers x_0, ..., x_(m-1) with every |x_q| <= bound pack into the single
int sum_q x_q 2^(L q), whose lanes are L = ``lane_bits(bound)`` bits wide.
Big-int arithmetic on packed values then does a whole list of multiply-adds
in one operation (Kronecker substitution): the sum of packed rows scaled by
integers packs the same combination of the rows, and the product of two
packed polynomials packs their product, as long as every lane of the result
stays within the bound the width was chosen for.  Decoding reads the lanes
back as balanced base-2^L digits.  The width rule is what keeps the digits
right: a lane that overflows carries into the next one, and the decode's
guard catches only a carry out of the top lane, which leaves a remainder
above it.  A middle lane's overflow decodes to wrong digits and raises
nothing; the identity checks that compare the result catch the rest.

Lane by lane, packing and reading shift the row-wide int once per lane,
which costs O(m^2 L) for m lanes of L bits.  A row wider than one leaf of
LEAF_BITS bits is worked in halves instead: ``pack`` packs each half and
joins the two with one shift, and ``unpack`` splits at the lane boundary
nearest the middle until every part is at most one leaf wide, then reads
each part lane by lane.  That costs O(m L log m) for the halving and
O(LEAF_BITS) per lane for the leaves.  The digits, the widths and the
overflow error are those of the lane-by-lane loop, which is what runs at
or below one leaf.

The codec is shared arithmetic: :func:`krawtchouk.hadamard.reduce_to_symmetric`,
:func:`krawtchouk.hadamard.k_pyramid`, :func:`krawtchouk.sympow.sym_group_power`,
the word tallies of :func:`krawtchouk.pathsum.oracle_matrix` and the integer
products of :meth:`krawtchouk.matrix.Matrix.mul` each pack their own values.
A product packs only when its scaling factor has more nonzeros than there
are rows to pack and rows to unpack, since the codec touches each of those
rows once; with fewer, as for a diagonal, skew or tridiagonal factor, it
adds plain rows and never meets the codec.
:func:`krawtchouk.sympow.sym_algebra_power_by_derivative` reads lane 1, the
t-coefficient, of a group power taken at t = 2^L by the width rule alone,
without a ``Lanes``.
"""

from __future__ import annotations

from operator import lshift

LEAF_BITS = 8192  # widest part packed and read lane by lane


def lane_bits(bound: int) -> int:
    """Lane width L with every |x| <= bound below 2^L / 2."""
    return bound.bit_length() + 1


class Lanes:
    """``count`` lanes of ``bits`` bits each in one Python int."""

    __slots__ = ("bits", "count", "shifts", "_leaf", "_mask", "_offset",
                 "_bias")

    def __init__(self, bits: int, count: int):
        self.bits = bits
        self.count = count
        self._leaf = max(1, LEAF_BITS // bits)  # lanes per leaf
        self.shifts = range(0, bits * count, bits)
        self._mask = (1 << bits) - 1
        self._offset = 1 << (bits - 1)
        # one offset per lane, 2^(L-1) (1 + 2^L + ... + 2^(L (count-1))):
        # lifts every balanced digit into [0, 2^L)
        self._bias = self._offset * (((1 << bits * count) - 1) // self._mask)

    def pack(self, values) -> int:
        """sum_q values[q] 2^(L q), for at most ``count`` values.

        Above one leaf the two halves pack apart and join with one shift.
        """
        if len(values) > self.count:
            raise ValueError(f"{len(values)} values for {self.count} lanes")
        if len(values) <= self._leaf:
            return sum(map(lshift, values, self.shifts))
        half = len(values) // 2
        return (self.pack(values[:half])
                + (self.pack(values[half:]) << self.bits * half))

    def unpack(self, total: int) -> list:
        """The ``count`` balanced base-2^L digits of ``total``, lowest first.

        Adding the bias makes every digit non-negative; what is left above
        the last lane is the remainder, which must vanish.  It catches a
        carry out of the top lane only.
        """
        lifted = total + self._bias
        if lifted >> (self.bits * self.count):
            raise AssertionError("a packed value overflowed its lanes")
        if self.count <= self._leaf:  # the loop of _read, without a call
            mask, offset = self._mask, self._offset
            return [((lifted >> s) & mask) - offset for s in self.shifts]
        return self._read(lifted, self.shifts)

    def _read(self, part: int, shifts: range) -> list:
        """The digits of a non-negative ``part`` at ``shifts``: lane by lane
        within one leaf, else each half of the lanes apart."""
        if len(shifts) <= self._leaf:
            mask, offset = self._mask, self._offset
            return [((part >> s) & mask) - offset for s in shifts]
        half = len(shifts) // 2
        low = shifts[half]  # the bits below the upper half
        return (self._read(part & ((1 << low) - 1), shifts[:half])
                + self._read(part >> low, shifts[:len(shifts) - half]))
