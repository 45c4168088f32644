"""Exact kernel: polynomials, Bareiss determinants, Smith forms."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from chowkit.exact import (
    IntMatrix,
    InexactDivisionError,
    NonSquareError,
    Poly,
    det_exact,
    det_expansion,
    invertible_over_localization,
    poly_mul,
    smith_normal_form,
)


# -- independent oracles -------------------------------------------------------


def schoolbook_mul(p: Poly, q: Poly) -> dict:
    """Term-by-term convolution, computed without Poly arithmetic."""
    variables = tuple(sorted(set(p.variables) | set(q.variables)))

    def expand(poly):
        out = {}
        for exps, c in poly.terms.items():
            key = [0] * len(variables)
            for name, e in zip(poly.variables, exps):
                key[variables.index(name)] = e
            out[tuple(key)] = c
        return out

    a, b = expand(p), expand(q)
    result = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            key = tuple(x + y for x, y in zip(ea, eb))
            result[key] = result.get(key, 0) + ca * cb
    return {k: v for k, v in result.items() if v}, variables


def _named_terms(terms, variables):
    return {
        frozenset((n, e) for n, e in zip(variables, exps) if e): c
        for exps, c in terms.items()
    }


def cofactor_det(rows) -> int:
    n = len(rows)
    if n == 0:
        return 1
    if n == 1:
        return rows[0][0]
    total = 0
    for j in range(n):
        minor = [r[:j] + r[j + 1:] for r in rows[1:]]
        total += (-1) ** j * rows[0][j] * cofactor_det(minor)
    return total


# -- polynomial basics ----------------------------------------------------------


def test_difference_of_squares():
    x, y = Poly.var("x"), Poly.var("y")
    assert (x + y) * (x - y) == x ** 2 - y ** 2


def test_multiplicative_identity():
    p = Poly.var("x") ** 2 - 3 * Poly.var("y") + 7
    assert poly_mul(p, Poly.const(1)) == p


def test_norm_form_square_has_ten_terms():
    a, b, x, y, z, w = Poly.variables_of("a", "b", "x", "y", "z", "w")
    norm = x ** 2 - a * y ** 2 - b * z ** 2 + a * b * w ** 2
    square = norm * norm
    assert len(square.terms) == 10
    oracle_terms, oracle_vars = schoolbook_mul(norm, norm)
    assert _named_terms(square.terms, square.variables) == _named_terms(oracle_terms, oracle_vars)


def test_unused_variables_are_dropped():
    x, y = Poly.var("x"), Poly.var("y")
    assert x + y - y == x
    assert (x + y - y).variables == ("x",)


def test_variable_order_is_canonical():
    ab = Poly(("a", "b"), {(2, 1): 1})
    ba = Poly(("b", "a"), {(1, 2): 1})
    assert ab == ba
    assert hash(ab) == hash(ba)
    assert len({ab: 1, ba: 2}) == 1
    assert ab.variables == ba.variables == ("a", "b")


def test_coefficient_extraction():
    lam, c = Poly.var("lam"), Poly.var("c")
    p = c ** 3 - 2 * lam * c ** 2 + lam ** 2 * c
    assert p.coefficient("lam", 1) == -2 * c ** 2
    assert p.coefficient("lam", 0) == c ** 3


def test_substitute_numeric_and_symbolic():
    x, y = Poly.var("x"), Poly.var("y")
    p = x ** 2 + y
    assert p.substitute({"x": 3, "y": 4}).constant_value() == 13
    assert p.substitute({"y": x}) == x ** 2 + x


def test_divexact_by_monomial_and_failure():
    a, x = Poly.var("a"), Poly.var("x")
    p = 2 * a * x ** 2 + 4 * a ** 2 * x
    assert p.divexact(2 * a) == x ** 2 + 2 * a * x
    with pytest.raises(InexactDivisionError):
        (x + 1).divexact(a)


def test_fraction_coefficients_stay_exact():
    x = Poly.var("x")
    p = Poly((), {(): Fraction(1, 2)}) * x
    assert (p + p) == x


small_coeffs = st.integers(min_value=-5, max_value=5)


@st.composite
def polys(draw, names=("x", "y", "z")):
    nterms = draw(st.integers(min_value=0, max_value=4))
    terms = {}
    for _ in range(nterms):
        exps = tuple(draw(st.integers(min_value=0, max_value=3)) for _ in names)
        terms[exps] = draw(small_coeffs)
    return Poly(names, terms)


@settings(max_examples=60, deadline=None)
@given(polys(), polys(), polys())
def test_poly_ring_axioms(p, q, r):
    assert p + q == q + p
    assert p * q == q * p
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r


@settings(max_examples=40, deadline=None)
@given(polys(), polys())
def test_poly_mul_matches_schoolbook(p, q):
    expected, variables = schoolbook_mul(p, q)
    got, got_vars = schoolbook_mul(p * q, Poly.const(1))
    assert _named_terms(got, got_vars) == _named_terms(expected, variables)


@settings(max_examples=30, deadline=None)
@given(polys(), polys())
def test_divexact_inverts_multiplication(p, q):
    if q.is_zero:
        return
    assert (p * q).divexact(q) == p


# -- determinants ----------------------------------------------------------------


def test_det_gram_matrix():
    m = IntMatrix.from_rows([[1, 1, 0], [1, 0, 1], [0, 1, 1]])
    assert det_exact(m) == -2


@pytest.mark.parametrize("k", [0, 1, 2, 3, 4])
def test_det_identity(k):
    assert det_exact(IntMatrix.identity(k)) == 1


def test_det_codim5_base_change():
    rows = [[1, -1, 0], [0, -1, -1], [-1, 1, -1]]
    d = det_exact(IntMatrix.from_rows(rows))
    assert d == cofactor_det(rows)
    assert abs(d) == 1


def test_det_nonsquare_rejected():
    with pytest.raises(NonSquareError):
        det_exact(IntMatrix.from_rows([[1, 2, 3], [4, 5, 6]]))


matrix44 = st.lists(
    st.lists(st.integers(min_value=-9, max_value=9), min_size=4, max_size=4),
    min_size=4, max_size=4,
)


@settings(max_examples=50, deadline=None)
@given(matrix44, matrix44)
def test_det_is_multiplicative(a, b):
    ma, mb = IntMatrix.from_rows(a), IntMatrix.from_rows(b)
    assert det_exact(ma * mb) == det_exact(ma) * det_exact(mb)


@settings(max_examples=50, deadline=None)
@given(matrix44)
def test_det_matches_cofactor_oracle(a):
    assert det_exact(IntMatrix.from_rows(a)) == cofactor_det(a)


def test_det_expansion_agrees_on_ints():
    rows = [[1, 1, 0], [1, 0, 1], [0, 1, 1]]
    assert det_expansion(rows) == -2


# -- Smith normal form -------------------------------------------------------------


def reconstruction_holds(m: IntMatrix) -> bool:
    smith = smith_normal_form(m)
    achieved = smith.left * m * smith.right
    return achieved == smith.diagonal_matrix(m.rows, m.cols)


def test_smith_gram_matrix():
    m = IntMatrix.from_rows([[1, 1, 0], [1, 0, 1], [0, 1, 1]])
    smith = smith_normal_form(m)
    assert smith.diagonal == (1, 1, 2)
    assert reconstruction_holds(m)
    assert abs(det_exact(smith.left)) == 1
    assert abs(det_exact(smith.right)) == 1


def test_smith_zero_matrix():
    m = IntMatrix.zero(3, 4)
    smith = smith_normal_form(m)
    assert smith.diagonal == (0, 0, 0)
    assert reconstruction_holds(m)


def test_smith_identity():
    assert smith_normal_form(IntMatrix.identity(3)).diagonal == (1, 1, 1)


rect_matrix = st.integers(min_value=1, max_value=4).flatmap(
    lambda r: st.integers(min_value=1, max_value=4).flatmap(
        lambda c: st.lists(
            st.lists(st.integers(min_value=-9, max_value=9), min_size=c, max_size=c),
            min_size=r, max_size=r,
        )
    )
)


@settings(max_examples=60, deadline=None)
@given(rect_matrix)
def test_smith_reconstruction_and_divisibility(rows):
    m = IntMatrix.from_rows(rows)
    smith = smith_normal_form(m)
    assert reconstruction_holds(m)
    assert abs(det_exact(smith.left)) == 1
    assert abs(det_exact(smith.right)) == 1
    diag = smith.diagonal
    assert all(d >= 0 for d in diag)
    for a, b in zip(diag, diag[1:]):
        if a == 0:
            assert b == 0
        else:
            assert b % a == 0


# -- localized invertibility ---------------------------------------------------------


def test_localization_gram():
    gram = IntMatrix.from_rows([[1, 1, 0], [1, 0, 1], [0, 1, 1]])
    assert invertible_over_localization(gram, {2})
    assert not invertible_over_localization(gram, set())


def test_localization_identity_and_zero():
    assert invertible_over_localization(IntMatrix.identity(2), set())
    assert not invertible_over_localization(IntMatrix.zero(2, 2), {2, 3})


def test_localization_rejects_nonprime():
    with pytest.raises(ValueError):
        invertible_over_localization(IntMatrix.identity(2), {4})
