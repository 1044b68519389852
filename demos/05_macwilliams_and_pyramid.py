"""Weight enumerators over GF(2) and the Krawtchouk pyramid.

The Krawtchouk matrix transforms the weight character of a binary subspace
into 2^dim(W) times the character of its orthogonal complement; coordinate
subspaces recover the binomial transform.  Stacking the matrices by order
builds a pyramid whose plane sections are Pascal-like triangles.
"""

import random

from krawtchouk import (
    complement,
    k_genfunc,
    macwilliams_check,
    pyramid_plane,
    subspace_from,
    weight_character,
)

w = subspace_from(["110"], 3)
perp = complement(w)
print("W      =", w, "   char:", weight_character(w))
print("W-perp =", perp, "   char:", weight_character(perp))
print("K * char(W) =", k_genfunc(3).mat.mul_vector(
    weight_character(w)))
print("2^dim(W) * char(W-perp) matches:", bool(macwilliams_check(w)))

rng = random.Random(0)
all_ok = True
for _ in range(200):
    n = rng.randint(2, 12)
    vectors = [rng.getrandbits(n) for _ in range(rng.randint(0, n))]
    all_ok &= bool(macwilliams_check(subspace_from(vectors, n)))
print("\n200 random subspaces of Z2^n, n <= 12, all pass:", all_ok)

print("\nThe west wall of the pyramid is Pascal's triangle:")
for row in pyramid_plane("west-down", 0, 6):
    print("  " + " ".join(str(x) for x in row))

print("\nOne level in, the Pascal rule keeps running on Krawtchouk columns:")
for row in pyramid_plane("west-down", 1, 6):
    print("  " + " ".join(str(x) for x in row))

print("\nThe south wall alternates signs; its rule is the half-difference:")
for row in pyramid_plane("south-up", 2, 6):
    print("  " + " ".join(str(x) for x in row))
