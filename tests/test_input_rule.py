"""One input rule for the public surface: an integer argument is taken with
operator.index, so a value that is not an integer is refused with TypeError or
ValueError, never truncated.  A rational argument keeps its exact value."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from chowkit.algebras import SplitAlgebra, enumerate_right_ideals
from chowkit.exact import IntMatrix, Poly
from chowkit.geometry import witt_split
from chowkit.schubert import GrChowClass, normalize_partition
from chowkit.spectral import weight_table
from chowkit.tate import d2_matrix, d2_matrix_from_chern, gl_tate_pattern

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
    "IntMatrix entry": lambda v: IntMatrix(1, 1, [v]),
    "IntMatrix rows": lambda v: IntMatrix(v, 1, [1]),
    "GrChowClass coefficient": lambda v: GrChowClass(3, 6, 1, {(1,): v}),
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
}


@pytest.mark.parametrize("name", INTEGER_ARGUMENTS)
@settings(max_examples=100, deadline=None)
@given(value=NOT_INTEGERS)
def test_integer_argument_refuses_a_non_integer(name, value):
    with pytest.raises((TypeError, ValueError)):
        INTEGER_ARGUMENTS[name](value)


@settings(max_examples=100, deadline=None)
@given(value=NOT_INTEGERS)
def test_witt_split_keeps_a_rational_entry_exactly(value):
    # Fraction reads the form's entries, so a number or numeric text keeps its
    # exact value; it refuses "1/0" with ZeroDivisionError and an infinity with
    # OverflowError, both ArithmeticErrors.
    try:
        residual = witt_split((value,)).residual
    except (TypeError, ValueError, ArithmeticError):
        return
    assert residual == (Fraction(value),)
