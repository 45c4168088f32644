"""The Chow ring of the Grassmannian Gr(k, n).

Basis classes are indexed by partitions inside the k x (n-k) box, written as
plain tuples of weakly decreasing positive ints ((), (1,), (3, 2, 1), ...).
Multiplication comes in two independent flavours: the Pieri rule (adding one
box in all valid ways) and a Schur route that reads each Littlewood-Richardson
coefficient off alternants in k variables.  The Schur route needs only the
Schur polynomial of the lighter factor, from exact bialternant division, and
the k! signed permutations of the heavier one; it never calls Pieri.  The pair
doubles as a built-in cross-check.  Intersection numbers need neither: the
duality pairing reads them off complementary partitions.
"""
from __future__ import annotations

from functools import lru_cache
from operator import gt, index, sub

from .exact import Poly, signed_permutations


# -- partitions --------------------------------------------------------------


def normalize_partition(parts) -> tuple:
    parts = tuple(p for p in map(index, parts) if p)
    if parts and min(parts) < 0:
        raise ValueError("partition parts must be nonnegative")
    if any(map(gt, parts[1:], parts)):
        raise ValueError("partition parts must be weakly decreasing")
    return parts


def in_box(parts, k: int, cols: int) -> bool:
    return len(parts) <= k and (not parts or parts[0] <= cols)


def weight(parts) -> int:
    return sum(parts)


def box_partitions(k: int, cols: int, weight_filter: int | None = None):
    """All partitions in the k x cols box, sorted by (weight, parts).

    With a weight filter only the partitions of that weight are generated.
    """
    out = []

    def rec(prefix, maxpart, rows_left, left):
        # Invariant: left <= maxpart * rows_left, so the weight still left fits.
        # Parts come in increasing order, which lists each weight sorted.
        if left == 0:
            out.append(tuple(prefix))
            return
        for p in range(-(-left // rows_left), min(maxpart, left) + 1):
            prefix.append(p)
            rec(prefix, p, rows_left - 1, left - p)
            prefix.pop()

    weights = range(k * cols + 1) if weight_filter is None else (weight_filter,)
    for w in weights:
        if 0 <= w <= k * cols:
            rec([], cols, k, w)
    return out


def format_partition(parts) -> str:
    return "(" + ",".join(str(p) for p in parts) + ")"


def parse_partition(text: str) -> tuple:
    body = text.strip()
    if body.startswith("(") and body.endswith(")"):
        body = body[1:-1]
    body = body.strip()
    if not body:
        return ()
    return normalize_partition(int(p) for p in body.split(","))


def add_box_targets(parts, k: int, cols: int):
    """Partitions obtained from parts by adding a single box, inside the box."""
    padded = list(parts) + [0] * (k - len(parts))
    out = []
    for row in range(k):
        cand = padded[:]
        cand[row] += 1
        if cand[row] > cols:
            continue
        if row > 0 and cand[row] > cand[row - 1]:
            continue
        out.append(normalize_partition(cand))
    return out


# -- Chow classes -------------------------------------------------------------


class GrChowClass:
    """Homogeneous integer combination of Schubert classes on Gr(k, n)."""

    __slots__ = ("k", "n", "codim", "terms")

    def __init__(self, k: int, n: int, codim: int, terms):
        cols = n - k
        cleaned = {}
        for parts, coeff in dict(terms).items():
            parts = normalize_partition(parts)
            coeff = index(coeff)
            if coeff == 0:
                continue
            if not in_box(parts, k, cols):
                raise ValueError(f"partition {parts} escapes the {k}x{cols} box")
            if weight(parts) != codim:
                raise ValueError("class is not homogeneous")
            cleaned[parts] = cleaned.get(parts, 0) + coeff
        cleaned = {p: c for p, c in cleaned.items() if c}
        # The zero class may sit in any degree (products past dim Gr vanish).
        if cleaned and not 0 <= codim <= k * cols:
            raise ValueError("codimension outside the Chow ring grading")
        if codim < 0:
            raise ValueError("negative codimension")
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "codim", codim)
        object.__setattr__(self, "terms", cleaned)

    def __setattr__(self, name, value):
        raise AttributeError("GrChowClass is immutable")

    @classmethod
    def schubert(cls, k: int, n: int, parts) -> "GrChowClass":
        parts = normalize_partition(parts)
        return cls(k, n, weight(parts), {parts: 1})

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def _same_space(self, other: "GrChowClass"):
        if (self.k, self.n) != (other.k, other.n):
            raise ValueError("classes on different Grassmannians")

    def __add__(self, other: "GrChowClass") -> "GrChowClass":
        self._same_space(other)
        if self.is_zero:
            return other
        if other.is_zero:
            return self
        if self.codim != other.codim:
            raise ValueError("sum of classes of different codimension")
        out = dict(self.terms)
        for p, c in other.terms.items():
            out[p] = out.get(p, 0) + c
        return GrChowClass(self.k, self.n, self.codim, out)

    def __neg__(self) -> "GrChowClass":
        return GrChowClass(self.k, self.n, self.codim, {p: -c for p, c in self.terms.items()})

    def __sub__(self, other: "GrChowClass") -> "GrChowClass":
        return self + (-other)

    def coefficient(self, parts) -> int:
        return self.terms.get(normalize_partition(parts), 0)

    def __eq__(self, other):
        if not isinstance(other, GrChowClass):
            return NotImplemented
        return (self.k, self.n, self.terms) == (other.k, other.n, other.terms) \
            and (self.is_zero or self.codim == other.codim)

    def __hash__(self):
        # A nonzero class's terms fix its codim, and zero classes of every
        # codim are equal.
        return hash((self.k, self.n, frozenset(self.terms.items())))

    def __str__(self):
        if self.is_zero:
            return "0"
        pieces = []
        for parts in sorted(self.terms):
            c = self.terms[parts]
            body = format_partition(parts) if abs(c) == 1 else f"{abs(c)}{format_partition(parts)}"
            if not pieces:
                pieces.append(body if c > 0 else f"-{body}")
            else:
                pieces.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(pieces)

    def __repr__(self):
        return f"GrChowClass[{self.k},{self.n}]({self})"


def pieri(c: GrChowClass) -> GrChowClass:
    """Multiplication by the codimension-1 Schubert class.

    Each partition is replaced by the sum of all partitions obtained by adding
    one box; partitions leaving the box are dropped (the Chow-ring truncation).
    """
    cols = c.n - c.k
    out = {}
    for parts, coeff in c.terms.items():
        for target in add_box_targets(parts, c.k, cols):
            out[target] = out.get(target, 0) + coeff
    return GrChowClass(c.k, c.n, c.codim + 1, out)


def _alternant(exponents: tuple) -> Poly:
    """det(x_i^(e_j)) over the variables x1..x_len(exponents); 1 with none.

    Written out directly as the k! signed monomials x_1^(e_w(1))...x_k^(e_w(k)).
    """
    terms = {}
    for sign, w in signed_permutations(len(exponents)):
        key = tuple(exponents[i] for i in w)
        terms[key] = terms.get(key, 0) + sign
    return Poly([f"x{i + 1}" for i in range(len(exponents))], terms)


def _shifted(parts, k: int) -> tuple:
    """parts + delta = (parts_1 + k-1, ..., parts_k + 0), padded to k entries."""
    padded = tuple(parts) + (0,) * (k - len(parts))
    return tuple(p + k - 1 - i for i, p in enumerate(padded))


@lru_cache(maxsize=None)
def _vandermonde(nvars: int) -> Poly:
    return _alternant(tuple(range(nvars - 1, -1, -1)))


@lru_cache(maxsize=None)
def schur_poly(parts: tuple, nvars: int) -> Poly:
    """Schur polynomial s_parts(x1..x_nvars) by the bialternant ratio.

    Numerator det(x_i^(lambda_j + n - j)) divided exactly by the Vandermonde
    determinant (computed once per nvars); exact polynomial division, no
    rational functions.
    """
    parts = normalize_partition(parts)
    if len(parts) > nvars:
        return Poly.zero()
    return _alternant(_shifted(parts, nvars)).divexact(_vandermonde(nvars))


def schur_product(x: GrChowClass, y: GrChowClass) -> GrChowClass:
    """Littlewood-Richardson product read off alternants in k variables.

    In k variables a_(lam+delta) * s_mu = sum_nu c^nu_(lam,mu) a_(nu+delta)
    (Macdonald, Symmetric Functions and Hall Polynomials, ch. I, sections 3
    and 5), and x^(nu+delta) is the only strictly decreasing monomial of
    a_(nu+delta).  So c^nu_(lam,mu) is the coefficient of x^(nu+delta) on the
    left:

        c^nu = sum over w in S_k of sgn(w) [x^(nu+delta - w(lam+delta))] s_mu,

    for every nu in the box of weight |lam| + |mu| that contains lam (the
    coefficient vanishes otherwise); partitions outside the box are never
    formed.  s_mu, of the lighter factor, comes from the exact bialternant
    division of ``schur_poly``, so the route never calls Pieri.
    """
    x._same_space(y)
    k, cols = x.k, x.n - x.k
    targets = [(nu, _shifted(nu, k)) for nu in box_partitions(k, cols, x.codim + y.codim)]
    signed = signed_permutations(k)
    out = {}
    for p1, c1 in x.terms.items():
        for p2, c2 in y.terms.items():
            lam, mu = (p1, p2) if weight(p1) >= weight(p2) else (p2, p1)
            # s_mu is symmetric, so Poly's name order of x1..xk (x10 before x2)
            # leaves its coefficients alone; only s_() = 1 has no variables.
            poly = schur_poly(mu, k)
            s_mu = poly.terms if poly.variables else {(0,) * k: c for c in poly.terms.values()}
            lam_d = _shifted(lam, k)
            permuted = [(sign, tuple(lam_d[i] for i in w)) for sign, w in signed]
            for nu, nu_d in targets:
                if any(map(gt, lam_d, nu_d)):
                    continue
                c = sum(sign * s_mu.get(tuple(map(sub, nu_d, e)), 0) for sign, e in permuted)
                if c:
                    out[nu] = out.get(nu, 0) + c1 * c2 * c
    return GrChowClass(x.k, x.n, x.codim + y.codim, out)


def duality_pairing(x: GrChowClass, y: GrChowClass) -> int:
    """Coefficient of the full-box class in the product of x and y.

    Defined when codim(x) + codim(y) equals dim Gr.  By the duality theorem
    (Fulton, Young Tableaux, 1997, Part III) two basis classes pair to 1
    exactly when their partitions are complementary in the box and to 0
    otherwise, so the pairing sums x's coefficients against y's at the
    complements and forms no product.
    """
    x._same_space(y)
    k, cols = x.k, x.n - x.k
    if x.codim + y.codim != k * cols:
        raise ValueError("pairing needs complementary codimensions")

    def complement(parts):
        # Rows cols - parts_k, ..., cols - parts_1, with the zero rows dropped.
        return tuple(cols - p for p in (0,) * (k - len(parts)) + parts[::-1] if p < cols)

    return sum(c * y.terms.get(complement(parts), 0) for parts, c in x.terms.items())


def point_count(k: int, n: int, q: int) -> int:
    """Gaussian binomial [n choose k]_q: points of Gr(k, n) over F_q."""
    if not 0 <= k <= n:
        return 0
    num = 1
    den = 1
    for i in range(k):
        num *= q ** (n - i) - 1
        den *= q ** (i + 1) - 1
    if num % den:
        raise ArithmeticError("Gaussian binomial was not integral")
    return num // den
