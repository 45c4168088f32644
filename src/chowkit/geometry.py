"""Concrete geometry: the twisted Pluecker embedding for quaternion pairs,
the block-determinant charts of the norm hyperplane in Gr(3,6) (and its
Gr(2,4) analogue), and Witt decomposition of diagonal rational forms.

Everything is exact: quaternion coordinates are ints, Fractions or symbolic
polynomials over Z[1/2][a, b, ...], and the chart equations are honest
polynomials in the nine free matrix entries.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, product
from math import isqrt, lcm

from .exact import Poly, det_expansion, prime_factors, row_echelon
from .algebras import QuatAlgebra, QuatElement, nrd, quat_mul, symbolic_quaternion


class UnclassifiedChartError(ValueError):
    """A chart matched neither the determinant-one nor the graph pattern."""


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


@dataclass(frozen=True)
class PluckerPoint:
    """The six reduced norms of a quaternion pair plus derived coordinates.

    norms = (Nrd a1, Nrd a2, Nrd(a1+a2), Nrd(a1+i a2), Nrd(a1+j a2),
    Nrd(a1+k a2)); u holds the linear change of variables under which the
    image quadric becomes t1*t2 = u1^2 - a u2^2 - b u3^2 + ab u4^2.
    """

    norms: tuple
    u: tuple


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


def quadric_identity_samples(count: int = 200, seed: int = 20260808) -> bool:
    """Random numeric specializations of the embedding identity.

    a, b odd nonzero, coordinates in [-5, 5]; every sample must vanish.
    """
    rng = random.Random(seed)
    odds = [v for v in range(-9, 10) if v % 2]
    for _ in range(count):
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


@dataclass(frozen=True)
class ChartClassification:
    kind: str                 # "SL" or "graph"
    pivot_variable: str | None
    equation: Poly


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
    raise UnclassifiedChartError(f"chart {pivots} matches no smooth pattern")


def classify_all_charts(degree: int = 3):
    """Classification of every chart; the exhaustive run is the verification."""
    return {pivots: classify_chart(pivots, degree) for pivots in all_charts(degree)}


# -- exact rational linear algebra helpers ---------------------------------------


def _mat_vec(m, v):
    return [sum(row[j] * v[j] for j in range(len(v))) for row in m]


def _bilinear(gram, u, v):
    return sum(u[i] * sum(gram[i][j] * v[j] for j in range(len(v)))
               for i in range(len(u)))


def _nullspace(rows, ncols):
    """Basis of the right kernel of a rational matrix."""
    reduced, pivots = row_echelon(rows)
    basis = []
    free = [c for c in range(ncols) if c not in pivots]
    for fc in free:
        vec = [Fraction(0)] * ncols
        vec[fc] = Fraction(1)
        for row, pc in zip(reduced, pivots):
            vec[pc] = -row[fc]
        basis.append(vec)
    return basis


def _congruence_transform(gram, cols):
    """B^T G B for column vectors cols."""
    size = len(cols)
    return [[_bilinear(gram, cols[i], cols[j]) for j in range(size)]
            for i in range(size)]


def _diagonalize_symmetric(gram):
    """(columns, diagonal) with columns^T G columns diagonal; exact."""
    m = len(gram)
    work = [[Fraction(v) for v in row] for row in gram]
    basis = [[Fraction(1 if i == j else 0) for j in range(m)] for i in range(m)]

    def col_add(i, j, f):
        # basis_i += f * basis_j, applied as a congruence on work
        for r in range(m):
            work[r][i] += f * work[r][j]
        for r in range(m):
            work[i][r] += f * work[j][r]
        for r in range(m):
            basis[r][i] += f * basis[r][j]

    def col_swap(i, j):
        for r in range(m):
            work[r][i], work[r][j] = work[r][j], work[r][i]
        work[i], work[j] = work[j], work[i]
        for r in range(m):
            basis[r][i], basis[r][j] = basis[r][j], basis[r][i]

    for t in range(m):
        if work[t][t] == 0:
            swap = next((i for i in range(t + 1, m) if work[i][i]), None)
            if swap is not None:
                col_swap(t, swap)
            else:
                partner = next((i for i in range(t + 1, m) if work[t][i]), None)
                if partner is None:
                    continue
                col_add(t, partner, Fraction(1))
        p = work[t][t]
        for i in range(t + 1, m):
            if work[t][i]:
                col_add(i, t, -work[t][i] / p)
    diag = tuple(work[i][i] for i in range(m))
    columns = [[basis[r][c] for r in range(m)] for c in range(m)]
    return columns, diag


# -- isotropic vectors and Witt decomposition ------------------------------------

SEARCH_BOUND = 30  # coordinate height of the isotropic and representation searches


def _clear_denominators(diag):
    scale = lcm(*(d.denominator for d in diag))
    return [int(d * scale) for d in diag]


def find_isotropic(diag):
    """Nonzero rational zero of a nondegenerate diagonal form, or None.

    Searches primitive integer vectors with coordinates of height up to
    SEARCH_BOUND, solving for the last coordinate by an exact square test.
    Definite forms are anisotropic outright and skip the search.
    """
    diag = [Fraction(d) for d in diag]
    if any(d == 0 for d in diag):
        raise ValueError("diagonal entries must be nonzero")
    n = len(diag)
    if n < 2:
        return None
    if all(d > 0 for d in diag) or all(d < 0 for d in diag):
        return None
    d = _clear_denominators(diag)
    head, last = d[:-1], d[-1]
    for height in range(1, SEARCH_BOUND + 1):
        for prefix in product(range(-height, height + 1), repeat=n - 1):
            if max((abs(c) for c in prefix), default=0) != height and any(prefix):
                continue
            target = Fraction(-sum(di * ci * ci for di, ci in zip(head, prefix)), last)
            if target < 0 or target.denominator != 1:
                continue
            root = isqrt(target.numerator)
            if root * root != target.numerator or root > SEARCH_BOUND:
                continue
            if not any(prefix) and root == 0:
                continue
            return [Fraction(c) for c in prefix] + [Fraction(root)]
    return None


@dataclass(frozen=True)
class WittDecomposition:
    """planes hyperbolic planes plus a diagonal residual, with certificate.

    transform columns list the hyperbolic pairs (e, f) followed by the
    residual basis, all in the original coordinates; conjugating the input
    form by it yields hyperbolic blocks [[0,1],[1,0]] and diag(residual).
    """

    planes: int
    residual: tuple
    transform: tuple
    search_exhausted: bool

    def target_gram(self):
        size = 2 * self.planes + len(self.residual)
        g = [[Fraction(0)] * size for _ in range(size)]
        for i in range(self.planes):
            g[2 * i][2 * i + 1] = Fraction(1)
            g[2 * i + 1][2 * i] = Fraction(1)
        for i, d in enumerate(self.residual):
            g[2 * self.planes + i][2 * self.planes + i] = Fraction(d)
        return g


def witt_split(form) -> WittDecomposition:
    """Split hyperbolic planes off a nondegenerate diagonal rational form.

    Repeatedly finds an isotropic vector within the search bound, completes it
    to a hyperbolic pair, restricts to the orthogonal complement and
    re-diagonalizes.  The congruence certificate is verified exactly before
    returning.  A nonempty residual with search_exhausted=True means the
    bounded search found nothing; the residual may well be anisotropic.
    """
    form = tuple(Fraction(c) for c in form)
    if any(c == 0 for c in form):
        raise ValueError("diagonal form must be nondegenerate")
    n = len(form)
    gram = [[form[i] if i == j else Fraction(0) for j in range(n)] for i in range(n)]
    # Column vectors spanning the not-yet-split subspace, in original coords.
    current_basis = [[Fraction(1 if i == j else 0) for i in range(n)] for j in range(n)]
    current_diag = list(form)
    pairs = []
    exhausted = False
    while len(current_diag) >= 2:
        v_local = find_isotropic(current_diag)
        if v_local is None:
            exhausted = True
            break
        m = len(current_diag)
        local_gram = [[current_diag[i] if i == j else Fraction(0) for j in range(m)]
                      for i in range(m)]
        pivot = next(i for i in range(m) if v_local[i])
        w = [Fraction(1 if i == pivot else 0) for i in range(m)]
        bv = _bilinear(local_gram, v_local, w)
        f0 = [c / bv for c in w]
        qf0 = _bilinear(local_gram, f0, f0)
        f_local = [fc - (qf0 / 2) * vc for fc, vc in zip(f0, v_local)]
        rows = [_mat_vec(local_gram, v_local), _mat_vec(local_gram, f_local)]
        comp = _nullspace(rows, m)
        sub = _congruence_transform(local_gram, comp)
        t_cols, sub_diag = _diagonalize_symmetric(sub)
        new_local = [[sum(comp[k][r] * t_cols[c][k] for k in range(len(comp)))
                      for r in range(m)] for c in range(len(comp))]

        def lift(vec):
            return [sum(current_basis[k][r] * vec[k] for k in range(m))
                    for r in range(n)]

        pairs.append((lift(v_local), lift(f_local)))
        current_basis = [lift(col) for col in new_local]
        current_diag = [d for d in sub_diag]
        if any(d == 0 for d in current_diag):
            raise AssertionError("restriction of a nondegenerate form degenerated")

    residual = tuple(int(d) if d.denominator == 1 else d for d in current_diag)
    columns = []
    for e, f in pairs:
        columns.append(e)
        columns.append(f)
    columns.extend(current_basis[:len(current_diag)])
    decomposition = WittDecomposition(len(pairs), residual,
                                      tuple(tuple(c) for c in columns), exhausted)
    achieved = _congruence_transform(gram, columns)
    if achieved != decomposition.target_gram():
        raise AssertionError("congruence certificate failed to verify")
    return decomposition


# -- representation and similarity certificates -----------------------------------


def represent(diag, value):
    """Rational vector v with q(v) = value for a diagonal form, or None."""
    diag = [Fraction(d) for d in diag]
    value = Fraction(value)
    d = _clear_denominators(diag + [Fraction(-1)])
    scale = Fraction(d[-1], -1)
    head = d[:-1]
    tail = scale * value
    for height in range(1, SEARCH_BOUND + 1):
        for prefix in product(range(-height, height + 1), repeat=len(diag)):
            if max((abs(c) for c in prefix), default=0) != height:
                continue
            lhs = sum(di * ci * ci for di, ci in zip(head, prefix))
            # lhs = tail * s^2 for an integer s within the bound
            if tail == 0:
                continue
            ratio = Fraction(lhs) / tail
            if ratio <= 0 or ratio.denominator != 1:
                continue
            root = isqrt(ratio.numerator)
            if root * root != ratio.numerator or root == 0 or root > SEARCH_BOUND:
                continue
            return [Fraction(c, root) for c in prefix]
    return None


def _congruence_columns(gram, targets):
    if not targets:
        return []
    cols, diag = _diagonalize_symmetric(gram)
    if any(d == 0 for d in diag):
        return None
    v_diag = represent(diag, targets[0])
    if v_diag is None:
        return None
    m = len(gram)
    v = [sum(cols[k][r] * v_diag[k] for k in range(m)) for r in range(m)]
    comp = _nullspace([_mat_vec(gram, v)], m)
    sub = _congruence_transform(gram, comp)
    rest = _congruence_columns(sub, targets[1:])
    if rest is None:
        return None
    lifted = [[sum(comp[k][r] * col[k] for k in range(len(comp))) for r in range(m)]
              for col in rest]
    return [v] + lifted


def congruence_between(f, g):
    """Transform P with P^T diag(f) P = diag(g), or None within the bound."""
    f = [Fraction(c) for c in f]
    g = [Fraction(c) for c in g]
    if len(f) != len(g):
        return None
    gram = [[f[i] if i == j else Fraction(0) for j in range(len(f))]
            for i in range(len(f))]
    cols = _congruence_columns(gram, g)
    if cols is None:
        return None
    achieved = _congruence_transform(gram, cols)
    target = [[g[i] if i == j else Fraction(0) for j in range(len(g))]
              for i in range(len(g))]
    if achieved != target:
        raise AssertionError("congruence certificate failed to verify")
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
        if c == 0:
            continue
        scaled = [c * v for v in f]
        transform = congruence_between(scaled, g)
        if transform is not None:
            return c, transform
    return None
