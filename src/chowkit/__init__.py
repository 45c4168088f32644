"""chowkit: exact-arithmetic Schubert calculus, quaternion algebra and slice
spectral sequence toolkit.

Everything is computed over arbitrary-precision integers, exact rationals or
integer-coefficient polynomials; there is no floating point in the package.
"""

from .exact import IntMatrix, Poly, SmithForm, det_exact, invertible_over_localization, \
    poly_mul, smith_normal_form
from .algebras import QuatAlgebra, QuatElement, SplitAlgebra, enumerate_right_ideals, \
    independent, independent_left_ideal, nrd, quat_mul
from .schubert import GrChowClass, box_partitions, duality_pairing, parse_partition, \
    pieri, point_count, schur_product
from .hyperplane import basis_certificate, gram_matrix, hyperplane_mul, intersection_pairing, \
    rational_cycle, tate_iso_check, verify_c3_twist_identity, verify_cycle_recursion
from .tate import chern_twist, chern_twist_product, d2_matrix, \
    enumerate_multi_indices, gl_tate_pattern, slice_consistency, slice_patterns
from .spectral import apply_d2, assemble, build_e2, render_group, weight_table
from .geometry import chart_equation, classify_chart, plucker_embed, \
    verify_quadric_identity, witt_split

__version__ = "0.1.0"
