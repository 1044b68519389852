"""One lane codec: a list of small integers carried as one big integer.

Integers x_0, ..., x_(m-1) with every |x_q| <= bound pack into the single
int sum_q x_q 2^(L q), whose lanes are L = ``lane_bits(bound)`` bits wide.
Big-int arithmetic on packed values then does a whole list of multiply-adds
in one operation (Kronecker substitution): the sum of packed rows scaled by
integers packs the same combination of the rows, and the product of two
packed polynomials packs their product, as long as every lane of the result
stays within the bound the width was chosen for.  Decoding reads the lanes
back as balanced base-2^L digits; a remainder left above the last lane means
a lane overflowed, and is an error rather than wrong digits.

The codec is shared arithmetic: :func:`krawtchouk.hadamard.reduce_to_symmetric`,
:func:`krawtchouk.sympow.sym_group_power` and the integer products of
:meth:`krawtchouk.matrix.Matrix.mul` each pack their own values, and
:func:`krawtchouk.sympow.sym_algebra_power_by_derivative` decodes lane 1, the
t-coefficient, of a group power taken at t = 2^L.
"""

from __future__ import annotations

from operator import lshift


def lane_bits(bound: int) -> int:
    """Lane width L with every |x| <= bound below 2^L / 2."""
    return bound.bit_length() + 1


class Lanes:
    """``count`` lanes of ``bits`` bits each in one Python int."""

    __slots__ = ("bits", "count", "shifts", "_mask", "_offset", "_bias")

    def __init__(self, bits: int, count: int):
        self.bits = bits
        self.count = count
        self.shifts = range(0, bits * count, bits)
        self._mask = (1 << bits) - 1
        self._offset = 1 << (bits - 1)
        # one offset per lane: lifts every balanced digit into [0, 2^L)
        self._bias = self.pack([self._offset] * count)

    def pack(self, values) -> int:
        """sum_q values[q] 2^(L q), for at most ``count`` values."""
        if len(values) > self.count:
            raise ValueError(f"{len(values)} values for {self.count} lanes")
        return sum(map(lshift, values, self.shifts))

    def unpack(self, total: int) -> list:
        """The ``count`` balanced base-2^L digits of ``total``, lowest first.

        Adding the bias makes every digit non-negative, so each lane reads
        off with a shift and a mask; what is left above the last lane is the
        remainder, which must vanish.
        """
        lifted = total + self._bias
        mask, offset = self._mask, self._offset
        digits = [((lifted >> s) & mask) - offset for s in self.shifts]
        if lifted >> (self.bits * self.count):
            raise AssertionError("a packed value overflowed its lanes")
        return digits
