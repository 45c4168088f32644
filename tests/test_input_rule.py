"""One input rule for the public surface: an integer argument is taken with
operator.index, so a value that is not an integer is refused with TypeError or
ValueError, never truncated.  A rational argument keeps its exact value."""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from chowkit.algebras import SplitAlgebra, enumerate_right_ideals
from chowkit.exact import IntMatrix, Poly, invertible_over_localization, is_prime
from chowkit.geometry import chart_equation, witt_split
from chowkit.hyperplane import label_weight, rational_cycle, section_codim, verify_cycle_recursion
from chowkit.schubert import GrChowClass, normalize_partition, point_count
from chowkit.spectral import cech_group, cyclic, weight_table
from chowkit.tate import (d2_matrix, d2_matrix_from_chern, enumerate_multi_indices,
                          gl_tate_pattern, max_weight)

# Small values too, so that a truncated value would often pass the range checks.
NOT_INTEGERS = st.one_of(
    st.fractions(min_value=-10, max_value=10).filter(lambda f: f.denominator > 1),
    st.integers(-10, 10).map(Fraction),
    st.floats(),
    st.integers(-10, 10).map(float),
    st.text(max_size=3),
)

# Each call passes the drawn value where an integer belongs.
INTEGER_ARGUMENTS = {
    "Poly exponent": lambda v: Poly(("x",), {(v,): 1}),
    "Poly power exponent": lambda v: Poly.var("x") ** v,
    "IntMatrix entry": lambda v: IntMatrix(1, 1, [v]),
    "IntMatrix rows": lambda v: IntMatrix(v, 1, [1]),
    "GrChowClass coefficient": lambda v: GrChowClass(3, 6, 1, {(1,): v}),
    # The zero class takes any codimension, so its range checks cannot refuse v.
    "GrChowClass k": lambda v: GrChowClass(v, 6, 0, {}),
    "GrChowClass n": lambda v: GrChowClass(3, v, 0, {}),
    "GrChowClass codim": lambda v: GrChowClass(3, 6, v, {}),
    "normalize_partition part": lambda v: normalize_partition((3, v)),
    "SplitAlgebra degree": lambda v: SplitAlgebra(v, 3),
    "SplitAlgebra.matrix entry": lambda v: SplitAlgebra(2, 3).matrix([[v, 0], [0, 1]]),
    "d2_matrix degree": lambda v: d2_matrix(v, 1),
    "d2_matrix twist": lambda v: d2_matrix(3, v),
    "d2_matrix_from_chern twist": lambda v: d2_matrix_from_chern(3, v),
    "weight_table degree": lambda v: weight_table(v, 1),
    "weight_table weight": lambda v: weight_table(3, v),
    "gl_tate_pattern degree": lambda v: gl_tate_pattern(v),
    "enumerate_right_ideals rank": lambda v: enumerate_right_ideals(SplitAlgebra(2, 2), v),
    "is_prime n": lambda v: is_prime(v),
    # A prime that is not an integer must not divide the determinant in floating point.
    "invertible_over_localization prime":
        lambda v: invertible_over_localization(IntMatrix.from_rows([[2 * 3 ** 40]]), [2, v]),
    "point_count k": lambda v: point_count(v, 6, 2),
    "point_count n": lambda v: point_count(2, v, 2),
    "point_count q": lambda v: point_count(2, 6, v),
    "chart pivot": lambda v: chart_equation((v, 2, 4)),
    "rational_cycle index": lambda v: rational_cycle(v),
    "verify_cycle_recursion index": lambda v: verify_cycle_recursion(v),
    "label_weight codim": lambda v: label_weight(v),
    "section_codim degree": lambda v: section_codim(v),
    "enumerate_multi_indices weight": lambda v: enumerate_multi_indices(3, v),
    "cyclic order": lambda v: cyclic(v),
    "cech_group n": lambda v: cech_group(v, 3, 1),
    "cech_group p": lambda v: cech_group(3, v, 1),
    "cech_group w": lambda v: cech_group(3, 3, v),
    "max_weight n": lambda v: max_weight(v),
}


@pytest.mark.parametrize("name", INTEGER_ARGUMENTS)
@settings(max_examples=100, deadline=None)
@given(value=NOT_INTEGERS)
def test_integer_argument_refuses_a_non_integer(name, value):
    with pytest.raises((TypeError, ValueError)):
        INTEGER_ARGUMENTS[name](value)


@pytest.mark.parametrize("exponent", [Fraction(1, 2), Fraction(-7, 3), Fraction(0),
                                      0.5, -1.5, 0.0, 2.0, "2", ""])
def test_poly_power_refuses_a_non_integer_exponent(exponent):
    with pytest.raises(TypeError):
        Poly.var("x") ** exponent


@settings(max_examples=100, deadline=None)
@given(value=NOT_INTEGERS)
@example(value="1/0")
@example(value=float("inf"))
def test_witt_split_keeps_a_rational_entry_exactly(value):
    # Fraction reads the form's entries, so a number or numeric text keeps its
    # exact value.
    try:
        residual = witt_split((value,)).residual
    except (TypeError, ValueError):
        return
    assert residual == (Fraction(value),)
