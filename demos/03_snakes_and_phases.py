"""Phase-generalized matrices and their snake figures.

Replacing the -1 of the classical construction by a unit phase e^(i phi)
yields complex Krawtchouk matrices; at phi = pi/2 the entries are Gaussian
integers.  Plotting a column in the complex plane and joining consecutive
entries draws a snake with dihedral symmetry.  This script prints the
quarter-turn matrices and writes an SVG of the order-7 snakes.
"""

import math
from pathlib import Path

from krawtchouk import k_phase, snake_coordinates, snake_svg

for n in (2, 3, 4):
    print(f"K(i), order {n}:")
    print(k_phase(n, math.pi / 2).pretty())
    print()

print("phi = pi gives back the classical matrix:")
print(k_phase(3, math.pi).pretty())
print()

print("Column 3 of the order-3 matrix as points in the plane:")
for x, y in snake_coordinates(k_phase(3, math.pi / 2), 3):
    print(f"  ({x}, {y})")

out = Path("snake_n7.svg")
out.write_text(snake_svg(k_phase(7, math.pi / 2)))
print(f"\nwrote {out.resolve()}")

# a generic phase drops to complex floats but keeps the same skeleton
k = k_phase(4, 1.0)
print("\ngeneric phase phi = 1.0 rad, entry (2,2):", k[2, 2])
