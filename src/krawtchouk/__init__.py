"""Exact-arithmetic Krawtchouk matrices and everything they are equal to.

Five constructions of the same integer matrices (generating functions,
binomial sums, symmetric tensor powers of the Hadamard matrix, Sylvester
reductions, exhaustive path sums), their algebraic identities (master
equation, involution, orthogonality, spectral decomposition, cross and
trace identities, MacWilliams transform over GF(2)), and the split
quaternion algebra behind them.  Everything is computed in exact rings;
floating point appears only for generic complex phases.
"""

from .core import (
    KrawtchoukMatrix,
    construction_equivalence_check,
    covector_transform,
    gamma_inverse,
    gamma_matrix,
    involution_check,
    k_binsum,
    k_entry,
    k_genfunc,
    k_reference,
    k_symmetric,
    kac_matrix,
    lambda_matrix,
    master_check,
    ortho_check,
)
from .generalized import (
    general_cross_check,
    k_general,
    k_general_symbolic,
    k_phase,
    snake_coordinates,
    snake_csv,
    snake_svg,
    specialize,
    trace_identity_check,
)
from .gf2 import (
    BinarySubspace,
    complement,
    coordinate_subspace_note,
    macwilliams_check,
    subspace_from,
    weight_character,
)
from .hadamard import (
    k_pyramid,
    pyramid_cross_check,
    pyramid_plane,
    reduce_to_symmetric,
    walsh_hadamard,
    weight_labels,
)
from .matrix import CheckReport, Matrix, SuiteReport
from .pathsum import (
    oracle_matrix,
    path_sum,
    path_weight,
    twiston_energy,
)
from .quaternion import (
    Quaternion,
    adjoint_act,
    hadamard_conjugation,
    hamilton,
    isotropic_basis,
    jhhk_check,
    lie_bracket,
    reflect,
    split,
    to_matrix2,
)
from .rings import ALPHA, BETA, Gaussian, Poly2, RootTwo, sqrt2_power
from .spectral import (
    EigenFactor,
    b_inverse,
    binomial_matrix,
    binomial_transform_check,
    binomial_vector,
    eigen_factors,
    eigenvector,
    k_from_BDBinv,
    skew_power_matrix,
)
from .sympow import (
    box_power,
    kron_power,
    sym_algebra_power,
    sym_group_power,
)
from .verify import run_suites

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
