"""Concrete geometry: the twisted Pluecker embedding for quaternion pairs,
the block-determinant charts of the norm hyperplane in Gr(3,6) (and its
Gr(2,4) analogue), and Witt decomposition of diagonal rational forms.

Everything is exact: quaternion coordinates are ints, Fractions or symbolic
polynomials over Z[1/2][a, b, ...], and the chart equations are honest
polynomials in the nine free matrix entries.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations, product
from math import isqrt, lcm

from .exact import Poly, Record, det_expansion, prime_factors, row_echelon
from .algebras import QuatAlgebra, QuatElement, nrd, quat_mul, symbolic_quaternion


# -- Pluecker embedding --------------------------------------------------------


def _exact_div(value, divisor):
    if isinstance(value, Poly) or isinstance(divisor, Poly):
        return Poly._coerce(value).divexact(Poly._coerce(divisor))
    if type(value) is int and type(divisor) is int:
        quotient, remainder = divmod(value, divisor)
        if not remainder:
            return quotient
    out = Fraction(value) / Fraction(divisor)
    return int(out) if out.denominator == 1 else out


class PluckerPoint(Record):
    """The six reduced norms of a quaternion pair plus derived coordinates.

    norms = (Nrd a1, Nrd a2, Nrd(a1+a2), Nrd(a1+i a2), Nrd(a1+j a2),
    Nrd(a1+k a2)); u holds the linear change of variables under which the
    image quadric becomes t1*t2 = u1^2 - a u2^2 - b u3^2 + ab u4^2.
    """

    __slots__ = ("norms", "u")


def plucker_embed(a1: QuatElement, a2: QuatElement) -> PluckerPoint:
    """Embed a quaternion pair by its six reduced norms.

    The derived coordinates divide by 2, 2a, 2b and 2ab; the numerators are
    exactly divisible (they are the components of a1 * conj(a2)), so the
    result stays polynomial even symbolically.
    """
    if a1.algebra != a2.algebra:
        raise ValueError("pair must live in one quaternion algebra")
    alg = a1.algebra
    a, b = alg.a, alg.b
    t1 = nrd(a1)
    t2 = nrd(a2)
    i2 = quat_mul(alg.gen_i(), a2)
    j2 = quat_mul(alg.gen_j(), a2)
    k2 = quat_mul(alg.gen_k(), a2)
    n_sum = nrd(a1 + a2)
    n_i = nrd(a1 + i2)
    n_j = nrd(a1 + j2)
    n_k = nrd(a1 + k2)
    u1 = _exact_div(n_sum - t1 - t2, 2)
    u2 = _exact_div(-(n_i - t1 - nrd(i2)), 2 * a)
    u3 = _exact_div(-(n_j - t1 - nrd(j2)), 2 * b)
    u4 = _exact_div(n_k - t1 - nrd(k2), 2 * a * b)
    return PluckerPoint((t1, t2, n_sum, n_i, n_j, n_k), (u1, u2, u3, u4))


def quadric_form_value(algebra: QuatAlgebra, u):
    """u1^2 - a u2^2 - b u3^2 + ab u4^2 for the given coordinates."""
    a, b = algebra.a, algebra.b
    u1, u2, u3, u4 = u
    return u1 * u1 - a * u2 * u2 - b * u3 * u3 + a * b * u4 * u4


def quadric_residual() -> Poly:
    """Nrd(a1) Nrd(a2) minus the quadric value of the derived coordinates.

    A polynomial over Z[1/2][a, b, x1..w1, x2..w2]; the embedding identity
    says it is identically zero.
    """
    alg = QuatAlgebra.symbolic()
    a1 = symbolic_quaternion("1", alg)
    a2 = symbolic_quaternion("2", alg)
    point = plucker_embed(a1, a2)
    t1, t2 = point.norms[0], point.norms[1]
    return Poly._coerce(t1 * t2 - quadric_form_value(alg, point.u))


def verify_quadric_identity() -> bool:
    return quadric_residual().is_zero


QUADRIC_SAMPLES = 200


def quadric_identity_samples() -> bool:
    """QUADRIC_SAMPLES seeded numeric specializations of the embedding identity.

    a, b odd nonzero, coordinates in [-5, 5]; every sample must vanish.
    """
    rng = random.Random(20260808)
    odds = [v for v in range(-9, 10) if v % 2]
    for _ in range(QUADRIC_SAMPLES):
        alg = QuatAlgebra(rng.choice(odds), rng.choice(odds))
        a1 = alg.element(*(rng.randint(-5, 5) for _ in range(4)))
        a2 = alg.element(*(rng.randint(-5, 5) for _ in range(4)))
        point = plucker_embed(a1, a2)
        if point.norms[0] * point.norms[1] != quadric_form_value(alg, point.u):
            return False
    return True


# -- charts of the block-determinant hyperplane ---------------------------------


def all_charts(degree: int = 3):
    """Pivot-row subsets of the 2k x k point matrix, k = degree."""
    if degree not in (2, 3):
        raise ValueError("charts are implemented for degrees 2 and 3")
    return list(combinations(range(1, 2 * degree + 1), degree))


def _chart_rows(pivots, degree: int):
    k = degree
    pivots = tuple(sorted(pivots))
    if len(pivots) != k or any(not 1 <= r <= 2 * k for r in pivots) \
            or len(set(pivots)) != k:
        raise ValueError(f"chart must be a {k}-subset of rows 1..{2 * k}")
    rows = []
    for r in range(1, 2 * k + 1):
        if r in pivots:
            i = pivots.index(r)
            rows.append([Poly.const(1 if c == i else 0) for c in range(k)])
        else:
            rows.append([Poly.var(f"a{r}{c + 1}") for c in range(k)])
    return rows


def chart_equation(pivots, degree: int = 3) -> Poly:
    """Defining equation of the hyperplane on the given chart.

    The matrix is normalized to the identity on the pivot rows; the equation
    is det(top k x k block) - det(bottom k x k block) in the free entries.
    """
    rows = _chart_rows(pivots, degree)
    k = degree
    top = det_expansion(rows[:k])
    bottom = det_expansion(rows[k:])
    return Poly._coerce(top - bottom)


class ChartClassification(Record):
    """kind is "SL" or "graph"; pivot_variable is a variable name or None;
    equation is the chart's Poly."""

    __slots__ = ("kind", "pivot_variable", "equation")


def classify_chart(pivots, degree: int = 3) -> ChartClassification:
    """Sort a chart into the two smooth shapes.

    "graph": some free variable occurs exactly once, alone in a degree-one
    term with unit coefficient, so the chart is the graph of a polynomial map.
    "SL": the equation is det(free block) = 1.  Anything else raises, which is
    exactly the failure the degree bound protects against.
    """
    eq = chart_equation(pivots, degree)
    for idx, name in enumerate(eq.variables):
        hits = [e for e in eq.terms if e[idx] > 0]
        if len(hits) == 1:
            e = hits[0]
            if sum(e) == 1 and e[idx] == 1 and abs(eq.terms[e]) == 1:
                return ChartClassification("graph", name, eq)
    k = degree
    free_rows = [r for r in range(1, 2 * k + 1) if r not in pivots]
    det_free = det_expansion(
        [[Poly.var(f"a{r}{c + 1}") for c in range(k)] for r in free_rows])
    if eq == det_free - 1 or eq == 1 - det_free:
        return ChartClassification("SL", None, eq)
    raise ValueError(f"chart {pivots} matches no smooth pattern")


def classify_all_charts(degree: int = 3):
    """Classification of every chart; the exhaustive run is the verification."""
    return {pivots: classify_chart(pivots, degree) for pivots in all_charts(degree)}


# -- exact rational linear algebra helpers ---------------------------------------
#
# Every vector is a column in the coordinates of the diagonal input form, which
# is only ever evaluated through _bilinear.


def _bilinear(form, u, v):
    """B(u, v) = sum d_k u_k v_k for the diagonal form <form>."""
    return sum(d * a * b for d, a, b in zip(form, u, v))


def _diagonal(entries):
    """Gram matrix of the diagonal form <entries>."""
    return [[Fraction(e) if i == j else Fraction(0) for j in range(len(entries))]
            for i, e in enumerate(entries)]


def _combine(basis, coords):
    """The vector sum(coords[k] * basis[k]) of column vectors basis."""
    return [sum(x * c for x, c in zip(row, coords)) for row in zip(*basis)]


def _certify(form, columns, target):
    """Raise unless the Gram matrix of the form on columns is target, checked exactly."""
    if [[_bilinear(form, u, v) for v in columns] for u in columns] != target:
        raise AssertionError("congruence certificate failed to verify")


def _complement(form, columns, vectors):
    """Columns spanning the part of span(columns) orthogonal to vectors."""
    rows = [[_bilinear(form, col, v) for col in columns] for v in vectors]
    reduced, pivots = row_echelon(rows)
    basis = []
    for fc in (c for c in range(len(columns)) if c not in pivots):
        coords = [Fraction(0)] * len(columns)
        coords[fc] = Fraction(1)
        for row, pc in zip(reduced, pivots):
            coords[pc] = -row[fc]
        basis.append(_combine(columns, coords))
    return basis


def _diagonalize_symmetric(form, columns):
    """(columns, diagonal): columns recombined to be pairwise orthogonal, and
    the form's values on them; exact."""
    cols = [list(c) for c in columns]
    m = len(cols)

    def value(i, j):
        return _bilinear(form, cols[i], cols[j])

    for t in range(m):
        if value(t, t) == 0:
            swap = next((i for i in range(t + 1, m) if value(i, i)), None)
            if swap is not None:
                cols[t], cols[swap] = cols[swap], cols[t]
            else:
                partner = next((i for i in range(t + 1, m) if value(t, i)), None)
                if partner is None:
                    continue
                cols[t] = [a + b for a, b in zip(cols[t], cols[partner])]
        p = value(t, t)
        for i in range(t + 1, m):
            f = value(t, i) / p
            if f:
                cols[i] = [a - f * b for a, b in zip(cols[i], cols[t])]
    return cols, tuple(value(i, i) for i in range(m))


# -- isotropic vectors and Witt decomposition ------------------------------------

SEARCH_BOUND = 30  # coordinate height of the isotropic and representation searches


def _zeros(diag):
    """Integer zeros (prefix, root) of a diagonal form, in search order.

    Prefixes run through heights 1..SEARCH_BOUND in product order, and the
    last coordinate is the root of an exact square test, at most SEARCH_BOUND.
    A definite form has no zero and yields nothing.
    """
    if all(d > 0 for d in diag) or all(d < 0 for d in diag):
        return
    scale = lcm(*(d.denominator for d in diag))
    *head, last = [int(d * scale) for d in diag]
    for height in range(1, SEARCH_BOUND + 1):
        for prefix in product(range(-height, height + 1), repeat=len(head)):
            if max(map(abs, prefix), default=0) != height:
                continue
            target, remainder = divmod(-sum(d * c * c for d, c in zip(head, prefix)), last)
            if target < 0 or remainder:
                continue
            root = isqrt(target)
            if root * root == target and root <= SEARCH_BOUND:
                yield prefix, root


def find_isotropic(diag):
    """Nonzero rational zero of a nondegenerate diagonal form, or None.

    Searches primitive integer vectors with coordinates of height up to
    SEARCH_BOUND, solving for the last coordinate by an exact square test.
    Definite forms are anisotropic outright and skip the search.
    """
    diag = [Fraction(d) for d in diag]
    if any(d == 0 for d in diag):
        raise ValueError("diagonal entries must be nonzero")
    for prefix, root in _zeros(diag):
        return [Fraction(c) for c in prefix] + [Fraction(root)]
    return None


class WittDecomposition(Record):
    """planes hyperbolic planes plus a diagonal residual, with certificate.

    transform columns list the hyperbolic pairs (e, f) followed by the
    residual basis, all in the original coordinates; conjugating the input
    form by it yields hyperbolic blocks [[0,1],[1,0]] and diag(residual).
    """

    __slots__ = ("planes", "residual", "transform", "search_exhausted")

    def target_gram(self):
        g = _diagonal([0] * (2 * self.planes) + list(self.residual))
        for i in range(0, 2 * self.planes, 2):
            g[i][i + 1] = g[i + 1][i] = Fraction(1)
        return g


def witt_split(form) -> WittDecomposition:
    """Split hyperbolic planes off a nondegenerate diagonal rational form.

    Repeatedly finds an isotropic vector within the search bound, completes it
    to a hyperbolic pair, restricts to the orthogonal complement and
    re-diagonalizes.  The congruence certificate is verified exactly before
    returning.  A nonempty residual with search_exhausted=True means the
    bounded search found nothing; the residual may well be anisotropic.
    Entries are read exactly with Fraction; one that is not a finite rational
    raises ValueError or TypeError.
    """
    try:
        form = tuple(Fraction(c) for c in form)
    except (ZeroDivisionError, OverflowError) as err:
        raise ValueError(f"form entries must be finite rationals: {err}") from None
    if any(c == 0 for c in form):
        raise ValueError("diagonal form must be nondegenerate")
    # Pairwise orthogonal columns spanning the not-yet-split subspace, and the
    # form's values diag on them; they start as the identity.
    basis = _diagonal([1] * len(form))
    diag = list(form)
    pairs = []
    while len(diag) >= 2:
        v = find_isotropic(diag)
        if v is None:
            break
        # In the coordinates of basis: f0 is a unit vector scaled so that
        # B(v, f0) = 1, and (v, f) is a hyperbolic pair.
        pivot = next(i for i, c in enumerate(v) if c)
        f0 = [Fraction(i == pivot) / (diag[pivot] * v[pivot]) for i in range(len(v))]
        f = [fc - (_bilinear(diag, f0, f0) / 2) * vc for fc, vc in zip(f0, v)]
        pair = [_combine(basis, v), _combine(basis, f)]
        pairs += pair
        basis, diag = _diagonalize_symmetric(form, _complement(form, basis, pair))
        if any(d == 0 for d in diag):
            raise AssertionError("restriction of a nondegenerate form degenerated")

    exhausted = len(diag) >= 2  # the loop ended on an empty search
    residual = tuple(int(d) if d.denominator == 1 else d for d in diag)
    columns = pairs + basis
    decomposition = WittDecomposition(len(pairs) // 2, residual,
                                      tuple(tuple(c) for c in columns), exhausted)
    _certify(form, columns, decomposition.target_gram())
    return decomposition


# -- representation and similarity certificates -----------------------------------


def represent(diag, value):
    """Rational vector v with q(v) = value for a diagonal form, or None."""
    value = Fraction(value)
    if value == 0:
        return None
    # v = prefix / root for a zero of diag + <-value> with root != 0.
    for prefix, root in _zeros([Fraction(d) for d in diag] + [-value]):
        if root:
            return [Fraction(c, root) for c in prefix]
    return None


def _congruence_columns(form, targets):
    """Columns, one per target, pairwise orthogonal with the form's value on
    the k-th equal to targets[k]; or None."""
    columns = _diagonal([1] * len(form))
    found = []
    for target in targets:
        cols, diag = _diagonalize_symmetric(form, columns)
        if any(d == 0 for d in diag):
            return None
        v_diag = represent(diag, target)
        if v_diag is None:
            return None
        found.append(_combine(cols, v_diag))
        columns = _complement(form, columns, found[-1:])
    return found


def congruence_between(f, g):
    """Transform P with P^T diag(f) P = diag(g), or None within the bound."""
    if len(f) != len(g):
        return None
    f = [Fraction(c) for c in f]
    cols = _congruence_columns(f, [Fraction(c) for c in g])
    if cols is None:
        return None
    _certify(f, cols, _diagonal(g))
    return tuple(tuple(c) for c in cols)


def similarity_certificate(f, g):
    """(multiplier, transform) with P^T diag(c*f) P = diag(g), or None.

    Multiplier candidates are the signed squarefree products of the primes
    dividing the entries of either form, which is where any similarity factor
    must live up to squares.
    """
    f = [Fraction(c) for c in f]
    g = [Fraction(c) for c in g]
    primes = sorted({p for value in f + g
                     for part in (value.numerator, value.denominator)
                     for p in prime_factors(part)})
    candidates = []
    for bits in product((0, 1), repeat=len(primes)):
        prod_ = 1
        for chosen, p in zip(bits, primes):
            if chosen:
                prod_ *= p
        candidates.extend([prod_, -prod_])
    for c in sorted(set(candidates), key=abs):
        scaled = [c * v for v in f]
        transform = congruence_between(scaled, g)
        if transform is not None:
            return c, transform
    return None
