"""Pluecker embedding, hyperplane charts, Witt decomposition."""

import time
from fractions import Fraction

import pytest

from chowkit.algebras import QuatAlgebra, quat_mul, symbolic_quaternion
from chowkit.exact import Poly, det_expansion
from chowkit.geometry import (
    all_charts,
    chart_equation,
    classify_all_charts,
    classify_chart,
    congruence_between,
    find_isotropic,
    plucker_embed,
    quadric_form_value,
    quadric_identity_samples,
    quadric_residual,
    represent,
    similarity_certificate,
    verify_quadric_identity,
    witt_split,
)
from test_algebras import conj, one


# -- Pluecker embedding -----------------------------------------------------------


def test_embed_unit_and_zero():
    alg = QuatAlgebra(2, 3)
    point = plucker_embed(one(alg), alg.element(0))
    assert point.norms == (1, 0, 1, 1, 1, 1)
    assert point.u == (0, 0, 0, 0)


def test_embed_numeric_example():
    alg = QuatAlgebra(2, 3)
    point = plucker_embed(one(alg), alg.gen_i())
    assert point.norms[0] * point.norms[1] == -2
    assert quadric_form_value(alg, point.u) == -2


def trd(u):
    """Reduced trace 2x."""
    return 2 * u.x


def test_u1_is_half_trace_of_pair_product():
    alg = QuatAlgebra.symbolic()
    a1 = symbolic_quaternion("1", alg)
    a2 = symbolic_quaternion("2", alg)
    point = plucker_embed(a1, a2)
    half_trace = Poly._coerce(trd(quat_mul(a1, conj(a2)))).divexact(2)
    assert point.u[0] == half_trace


def test_u_coordinates_are_the_pair_product_components():
    alg = QuatAlgebra.symbolic()
    a1 = symbolic_quaternion("1", alg)
    a2 = symbolic_quaternion("2", alg)
    point = plucker_embed(a1, a2)
    product = quat_mul(a1, conj(a2))
    assert point.u == tuple(Poly._coerce(c) for c in product.components())


def test_quadric_identity_symbolic():
    assert verify_quadric_identity()
    assert quadric_residual().is_zero


def test_quadric_identity_samples():
    assert quadric_identity_samples()


def test_quadric_identity_over_a_rational_algebra():
    # a = 1/2: the derived coordinates divide by Fractions, not ints.
    alg = QuatAlgebra(Fraction(1, 2), 3)
    point = plucker_embed(alg.element(1, 2, -1, 3), alg.element(-2, 1, 5, -1))
    assert any(isinstance(c, Fraction) for c in point.u)
    assert point.norms[0] * point.norms[1] == quadric_form_value(alg, point.u)


def test_quadric_identity_specializes_to_norm_form():
    alg = QuatAlgebra.symbolic()
    a1 = symbolic_quaternion("1", alg)
    point = plucker_embed(a1, one(alg))
    assert point.u == tuple(Poly._coerce(c) for c in a1.components())
    assert Poly._coerce(point.norms[0]) == Poly._coerce(quadric_form_value(alg, point.u))


# -- charts ------------------------------------------------------------------------


def var(name):
    return Poly.var(name)


def test_chart_equation_sl3_charts():
    det_bottom = det_expansion(
        [[var(f"a{r}{c}") for c in (1, 2, 3)] for r in (4, 5, 6)])
    assert chart_equation((1, 2, 3)) == 1 - det_bottom
    det_top = det_expansion(
        [[var(f"a{r}{c}") for c in (1, 2, 3)] for r in (1, 2, 3)])
    assert chart_equation((4, 5, 6)) == det_top - 1


def test_chart_equation_124_verbatim():
    expected = var("a33") - (var("a51") * var("a62") - var("a52") * var("a61"))
    assert chart_equation((1, 2, 4)) == expected


def test_classify_single_charts():
    assert classify_chart((1, 2, 3)).kind == "SL"
    cls = classify_chart((1, 2, 4))
    assert cls.kind == "graph"
    assert cls.pivot_variable == "a33"


def test_all_degree_three_charts_classify():
    table = classify_all_charts(3)
    assert len(table) == 20
    kinds = {k: sum(1 for c in table.values() if c.kind == k) for k in ("SL", "graph")}
    assert kinds["SL"] == 2
    assert kinds["graph"] == 18


def test_all_degree_two_charts_classify():
    table = classify_all_charts(2)
    assert len(table) == 6
    assert {c.kind for c in table.values()} == {"SL", "graph"}
    assert classify_chart((1, 2), degree=2).kind == "SL"
    assert classify_chart((3, 4), degree=2).kind == "SL"


def test_chart_validation():
    with pytest.raises(ValueError):
        chart_equation((1, 2), degree=3)
    with pytest.raises(ValueError):
        all_charts(4)


# -- quadratic forms -----------------------------------------------------------------


def conjugate_form(gram_diag, cols):
    """Independent check of P^T diag P."""
    n = len(cols[0])
    gram = [[Fraction(gram_diag[i]) if i == j else Fraction(0) for j in range(n)]
            for i in range(n)]
    size = len(cols)
    return [
        [sum(cols[i][r] * gram[r][s] * cols[j][s] for r in range(n) for s in range(n))
         for j in range(size)]
        for i in range(size)
    ]


def test_find_isotropic():
    assert find_isotropic([1, 1]) is None
    v = find_isotropic([1, -1])
    assert v is not None and sum(c * c * d for c, d in zip(v, [1, -1])) == 0
    assert find_isotropic([1, -2, -3]) is None      # anisotropic ternary form
    assert find_isotropic([-1, -5]) is None
    with pytest.raises(ValueError):
        find_isotropic([1, 0, -1])


def test_witt_split_hyperbolic_plane():
    w = witt_split([1, -1])
    assert w.planes == 1
    assert w.residual == ()
    assert not w.search_exhausted


def test_witt_split_definite():
    w = witt_split([1, 1])
    assert w.planes == 0
    assert w.residual == (1, 1)
    assert w.search_exhausted


def test_witt_split_compactification_form():
    w = witt_split([1, -2, -3, 6, -1])
    assert w.planes == 1
    assert len(w.residual) == 3
    assert w.search_exhausted
    # Certificate re-verified independently of the package code.
    cols = [list(c) for c in w.transform]
    achieved = conjugate_form([1, -2, -3, 6, -1], cols)
    expected = [[Fraction(v) for v in row] for row in
                [[0, 1, 0, 0, 0], [1, 0, 0, 0, 0]] +
                [[0, 0] + [w.residual[i] if i == j else 0 for i in range(3)]
                 for j in range(3)]]
    expected = [[Fraction(e) for e in row] for row in expected]
    assert achieved == expected
    # The ternary residual is similar over Q to <1,-2,-3>.
    cert = similarity_certificate(w.residual, (1, -2, -3))
    assert cert is not None
    multiplier, transform = cert
    scaled = [multiplier * Fraction(d) for d in w.residual]
    achieved = conjugate_form(scaled, [list(c) for c in transform])
    target = [[Fraction(v) if i == j else Fraction(0) for j in range(3)]
              for i, v in enumerate([1, -2, -3])]
    assert achieved == target


def test_witt_split_rejects_degenerate():
    with pytest.raises(ValueError):
        witt_split([1, 0, -1])


def test_represent_and_congruence():
    v = represent([1, 1], 5)
    assert v is not None
    assert sum(c * c for c in v) == 5
    p = congruence_between([1, -1], [2, -2])
    assert p is not None
    achieved = conjugate_form([1, -1], [list(c) for c in p])
    assert achieved == [[Fraction(2), 0], [0, Fraction(-2)]]
    assert congruence_between([1, 1], [-1, -1]) is None
    assert congruence_between([1, 2], [1, 2, 3]) is None
    # <1, 0> is degenerate: its diagonalization meets a zero pivot with
    # nothing to pair it with.
    assert congruence_between([1, 0], [1, 1]) is None
    # <1,2,3,5> and <1,1,1,1> are definite, so they have no zero to search
    # for; forms of different dimensions are never similar.
    for call in (lambda: represent([1, 2, 3], -5),
                 lambda: congruence_between([1, 1, 1], [-1, -1, -1]),
                 lambda: similarity_certificate([1, 2], [1, 2, 3])):
        start = time.perf_counter()
        assert call() is None
        assert time.perf_counter() - start < 0.1


@pytest.mark.parametrize("form", [
    (-2, -5, 5, 2),     # a zero pivot with a nonzero diagonal entry below it: a swap
    (2, 2, -2, -2),     # a zero pivot with only zeros below it: a partner column
])
def test_witt_split_through_a_zero_pivot(form):
    w = witt_split(form)
    assert w.planes == 2
    assert w.residual == ()
    assert not w.search_exhausted
    hyperbolic = [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]]
    assert conjugate_form(form, [list(c) for c in w.transform]) == hyperbolic


def test_congruence_through_a_zero_pivot():
    # Diagonalizing the complement of the first column meets a zero pivot with
    # only zeros on the diagonal below it: a partner column.
    p = congruence_between((1, -1, -1), (-1, 1, -1))
    assert p is not None
    target = [[-1, 0, 0], [0, 1, 0], [0, 0, -1]]
    assert conjugate_form((1, -1, -1), [list(c) for c in p]) == target
