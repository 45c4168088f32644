"""Exact kernel: records, polynomials, Bareiss determinants, Smith forms."""

import copy
import pickle
import random
from fractions import Fraction
from itertools import takewhile

import pytest
from hypothesis import assume, given, settings, strategies as st

from chowkit import exact
from chowkit.algebras import QuatAlgebra, SplitAlgebra
from chowkit.exact import (
    IntMatrix,
    InexactDivisionError,
    Poly,
    det_exact,
    det_expansion,
    invertible_over_localization,
    is_prime,
    poly_mul,
    prime_factors,
    smith_normal_form,
)
from chowkit.geometry import classify_chart
from chowkit.schubert import GrChowClass
from chowkit.tate import d2_matrix


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


def identity(n: int) -> IntMatrix:
    return IntMatrix(n, n, [1 if i == j else 0 for i in range(n) for j in range(n)])


def matmul(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    """The integer product a * b; the package itself never multiplies matrices."""
    assert a.cols == b.rows
    return IntMatrix(a.rows, b.cols, [sum(x * y for x, y in zip(a.row(i), b.entries[j::b.cols]))
                                      for i in range(a.rows) for j in range(b.cols)])


# -- polynomial basics ----------------------------------------------------------


def test_difference_of_squares():
    x, y = Poly.var("x"), Poly.var("y")
    assert (x + y) * (x - y) == x ** 2 - y ** 2


def test_multiplicative_identity():
    p = Poly.var("x") ** 2 - 3 * Poly.var("y") + 7
    assert poly_mul(p, Poly.const(1)) == p


def test_poly_str_pins_signs_and_coefficients():
    x, y = Poly.variables_of("x", "y")
    polys = (Poly.zero(), Poly.const(1), Poly.const(-1), -x, Fraction(1, 2) * x - 3 * y + 1,
             -2 * x * y - Fraction(3, 4), x ** 3 - 1)
    assert [str(p) for p in polys] == \
        ["0", "1", "-1", "-x", "1/2*x - 3*y + 1", "-2*x*y - 3/4", "x^3 - 1"]


def _seeded_poly(rng) -> Poly:
    """A polynomial in x, y, z with two to four terms and Fraction coefficients."""
    terms, size = {}, rng.randint(2, 4)
    while len(terms) < size:
        exps = tuple(rng.randint(0, 2) for _ in range(3))
        terms[exps] = Fraction(rng.choice([-3, -1, 1, 2, 5]), rng.choice([1, 2, 3]))
    return Poly(("x", "y", "z"), terms)


def test_poly_power_laws():
    rng = random.Random(20261021)
    for _ in range(12):
        p = _seeded_poly(rng)
        assert p ** 0 == 1
        assert p ** 1 == p
        for a in range(4):
            for b in range(4):
                assert p ** (a + b) == p ** a * p ** b
    with pytest.raises(ValueError):
        Poly.var("x") ** -1


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


def test_constructor_checks_every_exponent_vector():
    with pytest.raises(TypeError):
        Poly(("x",), {(1.5,): 1})       # int() would truncate it to x
    for exps in ((1, 2), (-1,)):
        for coeff in (0, 1):
            with pytest.raises(ValueError, match="exponent vector"):
                Poly(("x",), {exps: coeff})
    assert Poly(("x",), {(2,): 0}) == 0
    with pytest.raises(ValueError, match="distinct"):
        Poly(("x", "x"), {(1, 1): 1})   # would be x*x, structurally unequal to x^2


def test_constants_hash_like_their_scalars():
    for value in (0, 3, -7, Fraction(3), Fraction(-2, 5)):
        assert Poly.const(value) == value
        assert hash(Poly.const(value)) == hash(value)
    assert len({Poly.const(3), 3}) == 1
    assert len({Poly.var("x") - Poly.var("x"), 0}) == 1


def test_coefficient_extraction():
    lam, c = Poly.var("lam"), Poly.var("c")
    p = c ** 3 - 2 * lam * c ** 2 + lam ** 2 * c
    assert p.coefficient("lam", 1) == -2 * c ** 2
    assert p.coefficient("lam", 0) == c ** 3


def test_substitute_numeric_and_symbolic():
    x, y = Poly.var("x"), Poly.var("y")
    p = x ** 2 + y
    assert p.substitute({"x": 3, "y": 4}) == 13
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


def _assert_canonical(r: Poly):
    """r is what the validating constructor makes of its own parts."""
    again = Poly(r.variables, r.terms)
    typed = {e: (type(c), c) for e, c in r.terms.items()}
    assert r.variables == again.variables
    assert typed == {e: (type(c), c) for e, c in again.terms.items()}
    assert hash(r) == hash(again)
    assert r.variables == tuple(sorted(r.variables))
    for exps in r.terms:
        assert len(exps) == len(r.variables) and all(type(e) is int for e in exps)
    assert all(any(e[i] for e in r.terms) for i in range(len(r.variables)))


# Names whose string order differs from their numeric order (x10 < x2).
mixed_names = ("x", "y", "x2", "x10", "lam")
exact_coeffs = st.one_of(
    small_coeffs,
    st.builds(Fraction, st.integers(min_value=-6, max_value=6),
              st.sampled_from([1, 2, 3])),
)


@st.composite
def mixed_polys(draw):
    names = draw(st.permutations(mixed_names))[:draw(st.integers(min_value=0, max_value=4))]
    terms = {}
    for _ in range(draw(st.integers(min_value=0, max_value=4))):
        exps = tuple(draw(st.integers(min_value=0, max_value=2)) for _ in names)
        terms[exps] = draw(exact_coeffs)
    return Poly(names, terms)


@settings(max_examples=80, deadline=None)
@given(mixed_polys(), mixed_polys(), st.sampled_from(mixed_names), st.integers(0, 2))
def test_internal_arithmetic_results_are_canonical(p, q, name, power):
    for r in (p + q, p - q, p * q, -p, p.coefficient(name, power)):
        _assert_canonical(r)
    if not q.is_zero:
        quotient = (p * q).divexact(q)
        _assert_canonical(quotient)
        assert quotient == p


def maxscan_divexact(a: Poly, b: Poly) -> Poly:
    """Schoolbook long division that finds each leading term by a full max scan."""
    variables = tuple(sorted(set(a.variables) | set(b.variables)))

    def expand(poly):
        out = {}
        for exps, c in poly.terms.items():
            key = [0] * len(variables)
            for name, e in zip(poly.variables, exps):
                key[variables.index(name)] = e
            out[tuple(key)] = c
        return out

    def grlex(exps):
        return (sum(exps), exps)

    rem, divisor = expand(a), expand(b)
    lead_b = max(divisor, key=grlex)
    quotient = {}
    while rem:
        lead = max(rem, key=grlex)
        exps = tuple(x - y for x, y in zip(lead, lead_b))
        if any(e < 0 for e in exps):
            raise InexactDivisionError("leading term is not divisible")
        c = Fraction(rem[lead]) / divisor[lead_b]
        quotient[exps] = c
        for eb, vb in divisor.items():
            key = tuple(x + y for x, y in zip(exps, eb))
            rem[key] = rem.get(key, 0) - c * vb
            if not rem[key]:
                del rem[key]
    return Poly(variables, quotient)


@settings(max_examples=150, deadline=None)
@given(mixed_polys(), mixed_polys(), mixed_polys())
def test_heap_divexact_matches_maxscan_division(p, q, r):
    assume(not q.is_zero)
    for dividend in (p * q, p * q + r):
        try:
            expected = maxscan_divexact(dividend, q)
        except InexactDivisionError:
            with pytest.raises(InexactDivisionError):
                dividend.divexact(q)
            continue
        got = dividend.divexact(q)
        _assert_canonical(got)
        assert got == expected
        assert {e: type(c) for e, c in got.terms.items()} == \
            {e: type(c) for e, c in expected.terms.items()}


def test_divexact_inexact_cases_raise():
    x2, x10 = Poly.variables_of("x2", "x10")
    half = Fraction(1, 2)
    assert (x2 ** 2 - x10 ** 2).divexact(x2 + x10) == x2 - x10
    assert (half * x2 * x10 + x10).divexact(half * x10) == x2 + 2
    for num, den in ((x2 ** 2 + 1, x2 + x10), (x10, x2), (Poly.const(3), x10),
                     (x2 * x10 + 1, x2)):
        with pytest.raises(InexactDivisionError):
            num.divexact(den)
    with pytest.raises(ZeroDivisionError):
        x2.divexact(0)


def test_internal_arithmetic_edge_cases():
    x, y, x2, x10 = Poly.variables_of("x", "y", "x2", "x10")
    cancelled = x + y - y
    assert cancelled.variables == ("x",)
    _assert_canonical(cancelled)
    assert (x2 * x10).variables == ("x10", "x2")
    assert (x2 + x10).coefficient("x10", 0).variables == ("x2",)
    half = Fraction(1, 2) * x
    assert (half + half).terms == {(1,): 1}
    assert type((half + half).terms[(1,)]) is int
    assert type((Fraction(2, 3) * x * Fraction(3, 2)).terms[(1,)]) is int
    assert (x * y - y * x).variables == ()
    for r in (half + half, x2 * x10, (x * y).divexact(y), -(x - x)):
        _assert_canonical(r)


# -- determinants ----------------------------------------------------------------


def test_det_gram_matrix():
    m = IntMatrix.from_rows([[1, 1, 0], [1, 0, 1], [0, 1, 1]])
    assert det_exact(m) == -2


@pytest.mark.parametrize("k", [0, 1, 2, 3, 4])
def test_det_identity(k):
    assert det_exact(identity(k)) == 1


def test_det_codim5_base_change():
    rows = [[1, -1, 0], [0, -1, -1], [-1, 1, -1]]
    d = det_exact(IntMatrix.from_rows(rows))
    assert d == cofactor_det(rows)
    assert abs(d) == 1


def test_det_nonsquare_rejected():
    with pytest.raises(ValueError, match="determinant of a non-square matrix"):
        det_exact(IntMatrix.from_rows([[1, 2, 3], [4, 5, 6]]))


@pytest.mark.parametrize("rows, cols", [(-1, -1), (-1, 0), (0, -2)])
def test_negative_dimensions_rejected(rows, cols):
    with pytest.raises(ValueError, match="dimensions must be nonnegative"):
        IntMatrix(rows, cols, [0] * (rows * cols))


def test_fractional_dimensions_rejected():
    with pytest.raises(TypeError):
        IntMatrix(1.5, 2, [1, 2, 3])


@pytest.mark.parametrize("entries", [[Fraction(3, 2)], [Fraction(2, 1)], [1.9], [2.0], ["3"]])
def test_non_integer_entries_rejected(entries):
    """Entries are taken exactly: nothing is truncated or parsed."""
    with pytest.raises(TypeError):
        IntMatrix(1, 1, entries)
    with pytest.raises(TypeError):
        IntMatrix.from_rows([entries])


def test_integer_entries_kept_exactly():
    m = IntMatrix(1, 3, [True, -(2 ** 70), 5])
    assert m.entries == (1, -(2 ** 70), 5)
    assert all(type(e) is int for e in m.entries)
    assert IntMatrix.from_rows([[True, 2], [3, 4]]).entries == (1, 2, 3, 4)


matrix44 = st.lists(
    st.lists(st.integers(min_value=-9, max_value=9), min_size=4, max_size=4),
    min_size=4, max_size=4,
)


@settings(max_examples=50, deadline=None)
@given(matrix44, matrix44)
def test_det_is_multiplicative(a, b):
    ma, mb = IntMatrix.from_rows(a), IntMatrix.from_rows(b)
    assert det_exact(matmul(ma, mb)) == det_exact(ma) * det_exact(mb)


@settings(max_examples=50, deadline=None)
@given(matrix44)
def test_det_matches_cofactor_oracle(a):
    assert det_exact(IntMatrix.from_rows(a)) == cofactor_det(a)


def test_det_expansion_agrees_on_ints():
    rows = [[1, 1, 0], [1, 0, 1], [0, 1, 1]]
    assert det_expansion(rows) == -2


# -- Smith normal form -------------------------------------------------------------


def diagonal_matrix(smith, rows: int, cols: int) -> IntMatrix:
    out = [[0] * cols for _ in range(rows)]
    for i, d in enumerate(smith.diagonal):
        out[i][i] = d
    return IntMatrix.from_rows(out) if rows else IntMatrix(0, cols, [])


def transformed(smith, m: IntMatrix) -> IntMatrix:
    """left * m * right, which a Smith certificate equates with the diagonal."""
    return matmul(matmul(smith.left, m), smith.right)


def reconstruction_holds(m: IntMatrix) -> bool:
    smith = smith_normal_form(m)
    return transformed(smith, m) == diagonal_matrix(smith, m.rows, m.cols)


def test_smith_gram_matrix():
    m = IntMatrix.from_rows([[1, 1, 0], [1, 0, 1], [0, 1, 1]])
    smith = smith_normal_form(m)
    assert smith.diagonal == (1, 1, 2)
    assert reconstruction_holds(m)
    assert abs(det_exact(smith.left)) == 1
    assert abs(det_exact(smith.right)) == 1


def test_smith_zero_matrix():
    m = IntMatrix(3, 4, [0] * 12)
    smith = smith_normal_form(m)
    assert smith.diagonal == (0, 0, 0)
    assert reconstruction_holds(m)


def test_smith_identity():
    assert smith_normal_form(identity(3)).diagonal == (1, 1, 1)


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


# A 7x7 and an 8x8 matrix on which the earlier remainder-and-swap pivoting was
# still running after 20 s.
OVERRUN_7X7 = [
    [3, -1, 4, -8, -7, 8, -2],
    [8, -7, 4, 5, 7, -9, 0],
    [-2, 9, -1, 7, 7, -5, -9],
    [2, 2, -5, 6, 6, -6, 1],
    [5, -4, 2, -7, 8, 4, -3],
    [-7, -3, 4, 7, 1, -7, 2],
    [-6, 8, 0, -9, 4, -9, 2],
]
OVERRUN_8X8 = [
    [4, 4, 9, -9, -6, 4, -2, 2],
    [-3, 8, -1, -4, 6, -4, -6, 9],
    [-8, -7, -4, 1, 7, -6, 5, -1],
    [-2, -5, 5, 6, 8, 0, -2, -3],
    [-6, 9, -9, -8, 6, 8, -6, -7],
    [-4, -1, 5, 3, -1, -7, 3, -9],
    [1, -4, -3, 1, 8, -6, 0, -9],
    [9, 5, -2, 4, 0, 9, 9, 3],
]


@pytest.mark.parametrize("rows, diagonal", [
    (OVERRUN_7X7, (1, 1, 1, 1, 1, 2, 472800)),
    (OVERRUN_8X8, (1, 1, 1, 1, 1, 1, 1, 718604128)),
])
def test_smith_overrun_regressions(rows, diagonal):
    m = IntMatrix.from_rows(rows)
    smith = smith_normal_form(m)
    assert smith.diagonal == diagonal
    assert transformed(smith, m) == diagonal_matrix(smith, m.rows, m.cols)
    assert abs(det_exact(smith.left)) == 1
    assert abs(det_exact(smith.right)) == 1
    entries = smith.left.entries + smith.right.entries
    assert max(abs(e).bit_length() for e in entries) < 256


@st.composite
def integer_matrices(draw, square=False):
    """Matrices up to 8x8; with 3+ rows, sometimes one row is the sum of two others."""
    r = draw(st.integers(min_value=1, max_value=8))
    c = r if square else draw(st.integers(min_value=1, max_value=8))
    rows = draw(st.lists(
        st.lists(st.integers(min_value=-9, max_value=9), min_size=c, max_size=c),
        min_size=r, max_size=r,
    ))
    if r >= 3 and draw(st.booleans()):
        i, j, k = draw(st.permutations(range(r)))[:3]
        rows[k] = [x + y for x, y in zip(rows[i], rows[j])]
    return rows


def assert_smith_form_against_sympy(rows):
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import smith_normal_form as sympy_snf

    m = IntMatrix.from_rows(rows)
    smith = smith_normal_form(m)
    assert transformed(smith, m) == diagonal_matrix(smith, m.rows, m.cols)
    assert abs(det_exact(smith.left)) == 1
    assert abs(det_exact(smith.right)) == 1
    diag = smith.diagonal
    assert all(d >= 0 for d in diag)
    assert all(b % a == 0 if a else b == 0 for a, b in zip(diag, diag[1:]))
    theirs = sympy_snf(sympy.Matrix(rows), domain=sympy.ZZ)
    assert sorted(abs(int(theirs[i, i])) for i in range(len(diag))) == sorted(diag)


@settings(max_examples=60, deadline=None)
@given(integer_matrices(square=True))
def test_smith_square_matches_sympy(rows):
    assert_smith_form_against_sympy(rows)


@settings(max_examples=60, deadline=None)
@given(integer_matrices())
def test_smith_rectangular_and_rank_deficient_match_sympy(rows):
    assert_smith_form_against_sympy(rows)


# -- one determinant per matrix ------------------------------------------------------


def assert_smith_seeds_det(r, c, rows):
    """A square Smith form leaves Bareiss's determinant on its input; a
    rectangular one leaves none, and the transforms never get one."""
    m = IntMatrix(r, c, [v for row in rows for v in row])
    smith = smith_normal_form(m)
    assert not hasattr(smith.left, "_det")
    assert not hasattr(smith.right, "_det")
    if r == c:
        assert m._det == exact._bareiss(IntMatrix(r, c, m.entries))
    else:
        assert not hasattr(m, "_det")


@settings(max_examples=60, deadline=None)
@given(integer_matrices(square=True))
def test_smith_seeded_det_matches_bareiss(rows):
    assert_smith_seeds_det(len(rows), len(rows), rows)


def test_smith_seeded_det_on_golden_cases():
    # Every shape up to 8x8 (0x0 and rank-deficient ones included), the two
    # former overruns, and seeded 10x10 and 12x12 matrices.
    from test_smith_golden import golden_cases

    for cases in golden_cases().values():
        for r, c, rows in cases:
            assert_smith_seeds_det(r, c, rows)


def count_bareiss(monkeypatch) -> list:
    calls = []
    bareiss = exact._bareiss

    def counted(m):
        calls.append(m)
        return bareiss(m)

    monkeypatch.setattr(exact, "_bareiss", counted)
    return calls


def test_smith_then_det_and_localization_run_no_bareiss(monkeypatch):
    expected = exact._bareiss(IntMatrix.from_rows(OVERRUN_7X7))
    assert abs(expected) == 2 * 472800
    calls = count_bareiss(monkeypatch)
    m = IntMatrix.from_rows(OVERRUN_7X7)
    smith_normal_form(m)
    assert det_exact(m) == expected
    assert invertible_over_localization(m, {2, 3, 5, 197})
    assert not invertible_over_localization(m, {2, 3, 5})
    assert calls == []


def test_det_runs_bareiss_once_per_matrix(monkeypatch):
    calls = count_bareiss(monkeypatch)
    m = IntMatrix.from_rows([[1, 1, 0], [1, 0, 1], [0, 1, 1]])
    assert det_exact(m) == det_exact(m) == -2
    assert invertible_over_localization(m, {2})
    assert calls == [m]


# -- localized invertibility ---------------------------------------------------------


def test_prime_factors():
    assert prime_factors(0) == ()
    assert prime_factors(1) == ()
    assert prime_factors(-360) == (2, 3, 5)
    assert prime_factors(97) == (97,)
    assert prime_factors(2 * 3 * 101 ** 2) == (2, 3, 101)


def test_is_prime_matches_divisor_count():
    for n in range(-3, 300):
        divisors = [d for d in range(1, n + 1) if n % d == 0]
        assert is_prime(n) == (divisors == [1, n] and n > 1)


def test_is_prime_agrees_with_trial_division():
    small = [p for p in range(2, 448) if all(p % d for d in range(2, p))]
    for n in range(200_000):
        by_division = n >= 2 and all(n % p for p in takewhile(lambda p: p * p <= n, small))
        assert is_prime(n) == by_division, n


def test_is_prime_rejects_strong_pseudoprimes():
    # Strong pseudoprimes to the bases 2, 3, 5, 7 and to the first 11 primes.
    assert not is_prime(3215031751)
    assert not is_prime(3825123056546413051)
    assert is_prime(2 ** 61 - 1)
    assert not is_prime(2 ** 61 + 1)


def test_is_prime_refuses_above_the_proven_bound():
    # The least strong pseudoprime to the bases 2..41, 1287836182261 * 2575672364521.
    bound = 3_317_044_064_679_887_385_961_981
    assert is_prime(bound - 168)    # the largest prime below it
    for n in (bound, 2 ** 89 - 1):
        with pytest.raises(ValueError):
            is_prime(n)
    # A small factor still decides at any size.
    assert not is_prime(2 ** 200)
    assert not is_prime(41 * (2 ** 89 - 1))


def test_localization_gram():
    gram = IntMatrix.from_rows([[1, 1, 0], [1, 0, 1], [0, 1, 1]])
    assert invertible_over_localization(gram, {2})
    assert not invertible_over_localization(gram, set())


def test_localization_identity_and_zero():
    assert invertible_over_localization(identity(2), set())
    assert not invertible_over_localization(IntMatrix(2, 2, [0] * 4), {2, 3})


def test_localization_rejects_nonprime():
    with pytest.raises(ValueError):
        invertible_over_localization(identity(2), {4})


def test_localization_reads_the_primes_once():
    # A generator is used up by the primality check if it is read twice.
    assert invertible_over_localization(IntMatrix.from_rows([[2]]), (p for p in [2]))
    assert invertible_over_localization(IntMatrix.from_rows([[6]]), iter([3, 2]))


# -- records ------------------------------------------------------------------------


def det_cached(rows) -> IntMatrix:
    m = IntMatrix.from_rows(rows)
    det_exact(m)
    return m


RECORDS = {
    "QuatAlgebra": QuatAlgebra(2, 3),
    "SplitAlgebra": SplitAlgebra(2, 2),
    "D2Matrix": d2_matrix(3, 2),
    "Poly": Poly(("x", "y"), {(2, 1): Fraction(-3, 4), (0, 1): 2, (0, 0): 5}),
    "IntMatrix with its det cached": det_cached([[2, 1, 0], [1, 3, 1], [0, 1, 4]]),
    "GrChowClass": GrChowClass(3, 6, 3, {(2, 1): 2, (1, 1, 1): -1}),
    "zero GrChowClass": GrChowClass(3, 6, 4, {}),
    "SmithForm": smith_normal_form(IntMatrix.from_rows([[2, 4, 4], [-6, 6, 12], [10, 4, 16]])),
    "ChartClassification": classify_chart((1, 2, 4)),
    "symbolic QuatAlgebra": QuatAlgebra.symbolic(),
}


@pytest.mark.parametrize("record", RECORDS.values(), ids=RECORDS)
def test_records_survive_pickle_and_deepcopy(record):
    for copied in (pickle.loads(pickle.dumps(record)), copy.deepcopy(record), copy.copy(record)):
        assert type(copied) is type(record)
        assert copied == record
        if isinstance(record, IntMatrix):
            assert det_exact(copied) == det_exact(record)


@pytest.mark.parametrize("value, fields", [
    (Poly.var("x") + 1, ("variables", "terms")),
    (IntMatrix.from_rows([[1, 2], [3, 4]]), ("rows", "cols", "entries")),
    (GrChowClass.schubert(3, 6, (2, 1)), ("k", "n", "codim", "terms")),
], ids=["Poly", "IntMatrix", "GrChowClass"])
def test_value_fields_refuse_assignment_and_deletion(value, fields):
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(value, name, getattr(value, name))
        with pytest.raises(AttributeError):
            delattr(value, name)
    with pytest.raises(AttributeError):
        value.extra = 1


def test_value_equality_rules():
    m = IntMatrix.from_rows([[1, 2], [3, 4]])
    assert m != [[1, 2], [3, 4]] and m != ((1, 2), (3, 4))
    cached = det_cached([[1, 2], [3, 4]])
    assert m == cached and hash(m) == hash(cached)
    # The zero class sits in every codimension at once.
    assert GrChowClass(3, 6, 3, {}) == GrChowClass(3, 6, 10, {})
    assert hash(GrChowClass(3, 6, 3, {})) == hash(GrChowClass(3, 6, 10, {}))


def test_records_take_their_fields_by_position_only():
    with pytest.raises(TypeError):
        QuatAlgebra(a=2, b=3)
    with pytest.raises(TypeError):
        QuatAlgebra(2, b=3)
    with pytest.raises(TypeError, match=r"takes the fields \('n', 'p'\)"):
        SplitAlgebra(2)
