"""Split quaternions, the 2x2 master equation, and its tensor powers.

The Hadamard matrix is the split quaternion H = F + G; the one-line
identity FH = HG (both sides 1 - i) is the order-1 master equation.
Symmetric tensor powers then manufacture the whole Krawtchouk story:
H as a group element powers to K, while F and G as algebra elements power
to the Kac matrix and the eigenvalue matrix.
"""

from krawtchouk import (
    adjoint_act,
    hadamard_conjugation,
    jhhk_check,
    k_genfunc,
    kac_matrix,
    lambda_matrix,
    lie_bracket,
    sym_algebra_power,
    sym_group_power,
    to_matrix2,
)
from krawtchouk.quaternion import F, G, H, I_S, isotropic_basis
from krawtchouk.sympow import MAT_F, MAT_G, MAT_H

print("F H =", F * H, "   H G =", H * G, "   equal:", jhhk_check().ok)
print("as 2x2 matrices, F H:")
print(to_matrix2(F * H).pretty())

print("\nLie brackets (half-commutators):")
print("  [i, F] =", lie_bracket(I_S, F))
print("  [F, G] =", lie_bracket(F, G))
print("  [G, i] =", lie_bracket(G, I_S))

print("\nConjugation by H swaps F and G and flips i:")
for name, img in hadamard_conjugation().items():
    print(f"  H {name} H^-1 = {img}")
r, l, n_unit = isotropic_basis()
print("(the null pair R, L straddles N: R - L =", r - l, ")")
print("conjugating by N itself flips the pair: N L N^-1 =",
      adjoint_act(I_S, l))

print("\nTensor powers at n = 4:")
n = 4
print("H^group == K:        ", sym_group_power(MAT_H, n) == k_genfunc(n).mat)
print("F^algebra == Kac:    ", sym_algebra_power(MAT_F, n) == kac_matrix(n))
print("G^algebra == Lambda: ", sym_algebra_power(MAT_G, n) == lambda_matrix(n))
fa = sym_algebra_power(MAT_F, n)
hg_ = sym_group_power(MAT_H, n)
ga = sym_algebra_power(MAT_G, n)
print("F^alg H^grp == H^grp G^alg (master equation):", fa @ hg_ == hg_ @ ga)
