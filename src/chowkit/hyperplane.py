"""Chow groups of the split hyperplane section X of Gr(3, 6).

X is the smooth 8-fold cut out of Gr(3, 6) by equating the determinants of the
two 3x3 blocks of a 6x3 point matrix.  Pull-back identifies CH^i(X) with
CH^i(Gr) for i <= 3, push-forward identifies CH^i(X) with CH^(i+1)(Gr) for
i >= 5, and in the middle degree only the rank-3 pulled-back part is modelled
(the extra vanishing-cycle generator has no rational representative and is
deliberately excluded; the certificates below only ever need the rank-3 part).

Labels therefore carry |parts| = codim for codim <= 4 and |parts| = codim + 1
for codim >= 5; degree 5 labels do not exist.  Multiplying by the hyperplane
class costs one Pieri step except out of the middle degree, where push-forward
and pull-back force two.
"""

from __future__ import annotations

from .exact import IntMatrix, Poly, det_exact, invertible_over_localization
from .schubert import (
    GrChowClass,
    box_partitions,
    duality_pairing,
    normalize_partition,
    pieri,
    schur_product,
)

K, N = 3, 6
COLS = N - K
DIM_GR = K * COLS          # 9
DIM_X = DIM_GR - 1         # 8
MIDDLE = DIM_X // 2        # 4


class TopCodimError(ValueError):
    """Hyperplane multiplication out of the top degree."""


class CodimMismatchError(ValueError):
    """Pairing of classes whose codimensions do not sum to dim X."""


class RankMismatchError(ValueError):
    """Basis certificate got the wrong number of classes for the degree."""


class NotSelfDualError(ValueError):
    """Codimension multiset is not symmetric around the middle degree."""


class IndexOutOfRangeError(ValueError):
    """Rational cycle index outside 1..5."""


def label_weight(codim: int) -> int:
    """Degree of the Schubert labels used in CH^codim(X)."""
    if not 0 <= codim <= DIM_X:
        raise ValueError("codimension outside 0..8")
    return codim if codim <= MIDDLE else codim + 1


class SectionClass:
    """Integer combination of Schubert labels in one Chow group of X."""

    __slots__ = ("codim", "terms", "_gr")

    def __init__(self, codim: int, terms):
        # GrChowClass cleans the labels and checks them against the 3x3 box
        # and the label degree of CH^codim(X).
        gr = GrChowClass(K, N, label_weight(codim), terms)
        object.__setattr__(self, "codim", codim)
        object.__setattr__(self, "terms", gr.terms)
        object.__setattr__(self, "_gr", gr)

    def __setattr__(self, name, value):
        raise AttributeError("SectionClass is immutable")

    @classmethod
    def label(cls, codim: int, parts) -> "SectionClass":
        return cls(codim, {normalize_partition(parts): 1})

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other: "SectionClass") -> "SectionClass":
        if self.is_zero:
            return other
        if other.is_zero:
            return self
        if self.codim != other.codim:
            raise ValueError("sum of classes of different codimension")
        out = dict(self.terms)
        for p, c in other.terms.items():
            out[p] = out.get(p, 0) + c
        return SectionClass(self.codim, out)

    def __neg__(self) -> "SectionClass":
        return SectionClass(self.codim, {p: -c for p, c in self.terms.items()})

    def __sub__(self, other: "SectionClass") -> "SectionClass":
        return self + (-other)

    def reduce_mod(self, m: int) -> "SectionClass":
        """Coefficients reduced to symmetric representatives mod m."""
        out = {}
        for p, c in self.terms.items():
            r = c % m
            if r > m // 2:
                r -= m
            out[p] = r
        return SectionClass(self.codim, out)

    def to_gr(self) -> GrChowClass:
        """The label combination as a Grassmannian class of degree |labels|."""
        return self._gr

    def coefficient(self, parts) -> int:
        return self.terms.get(normalize_partition(parts), 0)

    def __eq__(self, other):
        if not isinstance(other, SectionClass):
            return NotImplemented
        return self.terms == other.terms and (self.is_zero or self.codim == other.codim)

    def __hash__(self):
        # A nonzero class's terms fix its codim, and zero classes of every
        # codim are equal.
        return hash(frozenset(self.terms.items()))

    def __str__(self):
        return str(self.to_gr())

    def __repr__(self):
        return f"SectionClass(codim={self.codim}, {self})"


def fundamental_class() -> SectionClass:
    return SectionClass.label(0, ())


def point_class() -> SectionClass:
    return SectionClass.label(8, (3, 3, 3))


def hyperplane_mul(x: SectionClass) -> SectionClass:
    """Product with the hyperplane class of X.

    One Pieri step on labels in every degree except the middle one, where the
    push-forward/pull-back detour costs two Pieri steps (labels jump from
    degree 4 to degree 6).
    """
    if x.codim >= DIM_X:
        raise TopCodimError("no room above the top degree")
    product = pieri(x.to_gr())
    if x.codim == MIDDLE:
        product = pieri(product)
    return SectionClass(x.codim + 1, product.terms)


def intersection_pairing(x: SectionClass, y: SectionClass) -> int:
    """Intersection number of classes with codim(x) + codim(y) = 8.

    Away from the middle degree the label degrees already complement to 9 and
    the Grassmannian duality pairing applies.  Two middle classes pair through
    the ambient triple product with one extra hyperplane factor (projection
    formula); this rule reproduces the reference Gram matrix exactly.
    """
    if x.codim + y.codim != DIM_X:
        raise CodimMismatchError("codimensions must sum to 8")
    if x.is_zero or y.is_zero:
        return 0
    if x.codim == MIDDLE and y.codim == MIDDLE:
        prod = schur_product(x.to_gr(), y.to_gr())
        return pieri(prod).coefficient((COLS,) * K)
    return duality_pairing(x.to_gr(), y.to_gr())


def gram_matrix(classes) -> IntMatrix:
    """Matrix of pairwise intersection numbers of middle-degree classes."""
    classes = list(classes)
    for c in classes:
        if 2 * c.codim != DIM_X:
            raise ValueError("Gram matrix is defined for middle-degree classes")
    size = len(classes)
    entries = [intersection_pairing(a, b) for a in classes for b in classes]
    return IntMatrix(size, size, entries)


# -- rational cycles on P^2 x X ----------------------------------------------


# The five certified rational cycles, stored verbatim as label tables:
# index -> (total codim, {H-power: {partition: coefficient}}).
_CYCLE_TABLE = {
    1: (3, {0: {(3,): 1},
            1: {(2,): 1},
            2: {(1,): 1}}),
    2: (4, {0: {(3, 1): 1},
            1: {(3,): 1, (2, 1): 1},
            2: {(2,): 1, (1, 1): 1}}),
    3: (5, {0: {(3, 3): 1, (3, 2, 1): -1},
            1: {(3, 1): -1, (2, 2): 1, (2, 1, 1): 1},
            2: {(3,): 1, (2, 1): -1, (1, 1, 1): 1}}),
    4: (6, {0: {(3, 2, 2): -1},
            1: {(3, 2, 1): -1, (2, 2, 2): -1},
            2: {(2, 2): -1}}),
    5: (7, {0: {(3, 3, 2): -1},
            1: {(3, 3, 1): -1, (3, 2, 2): 1},
            2: {(3, 3): -1, (3, 2, 1): 1, (2, 2, 2): -1}}),
}


def rational_cycle(i: int) -> tuple:
    """The i-th certified rational cycle on P^2 x X, i in 1..5, as (c0, c1, c2).

    The cycle is c0 + H*c1 + H^2*c2 with H the hyperplane of P^2 (H^3 = 0).
    Its total codimension is homogeneous, so c_d is a SectionClass of codim
    total - d.
    """
    if i not in _CYCLE_TABLE:
        raise IndexOutOfRangeError("rational cycles are numbered 1..5")
    total, table = _CYCLE_TABLE[i]
    return tuple(SectionClass(total - d, table[d]) for d in range(3))


def format_cycle(cycle) -> str:
    """A cycle (c0, c1, c2) as "[c0] + H*[c1] + H^2*[c2]", zero terms left out, or "0"."""
    terms = [f"{prefix}[{c}]" for prefix, c in zip(("", "H*", "H^2*"), cycle) if not c.is_zero]
    return " + ".join(terms) or "0"


def verify_cycle_recursion(i: int):
    """Check that hyperplane * cycle(i) is cycle(i+1) modulo 3.

    Returns (holds, residual) where the residual is the triple of mod-3
    reductions of the differences, component by component; the recursion is a
    verification of the stored table, not a construction.  The hyperplane
    class of X and H come from different factors, so they commute and the
    product acts on each component c_d alone.
    """
    if not 1 <= i <= 4:
        raise IndexOutOfRangeError("recursion steps are numbered 1..4")
    residual = tuple((hyperplane_mul(c) - c_next).reduce_mod(3)
                     for c, c_next in zip(rational_cycle(i), rational_cycle(i + 1)))
    return all(r.is_zero for r in residual), residual


# -- certificates -------------------------------------------------------------


def reference_bases() -> dict:
    """The certified generating sets of CH^c(X) for c in 1, 2, 3, 5, 6, 7.

    These are exactly the cycle components of the matching codimension; their
    unimodularity is what basis_certificate verifies.
    """
    out = {}
    for c in (1, 2, 3, 5, 6, 7):
        classes = []
        for i in range(1, 6):
            for comp in rational_cycle(i):
                if comp.codim == c and not comp.is_zero:
                    classes.append(comp)
        out[c] = classes
    return out


def middle_classes():
    """The three pulled-back middle-degree label classes."""
    return tuple(SectionClass.label(4, p) for p in ((3, 1), (2, 2), (2, 1, 1)))


def basis_certificate(classes, codim: int) -> bool:
    """True iff the classes are a Z-basis of the label lattice in CH^codim(X).

    Expresses the classes in the Schubert label basis and demands an
    unimodular coefficient matrix (determinant +-1).
    """
    classes = list(classes)
    labels = box_partitions(K, COLS, weight_filter=label_weight(codim))
    if len(classes) != len(labels):
        raise RankMismatchError(
            f"need {len(labels)} classes at codim {codim}, got {len(classes)}")
    rows = []
    for cls in classes:
        if cls.codim != codim:
            raise ValueError("class of the wrong codimension")
        rows.append([cls.coefficient(p) for p in labels])
    return abs(det_exact(IntMatrix.from_rows(rows))) == 1


def standard_collection():
    """Fundamental class, the fifteen cycle components, and the point class.

    The codimension multiset is 8-self-dual, as the Tate-isomorphism check
    requires.
    """
    coll = [(0, fundamental_class())]
    for i in range(1, 6):
        for comp in rational_cycle(i):
            coll.append((comp.codim, comp))
    coll.append((8, point_class()))
    return coll


def pairing_matrix(classes) -> IntMatrix:
    """Full pairing matrix of a self-dual family of (codim, class) pairs.

    Entries vanish unless the two codimensions sum to 8 (there are no
    morphisms between the other summands); this is the matrix whose
    invertibility certifies the split.
    """
    classes = list(classes)
    counts = {}
    for codim, _ in classes:
        counts[codim] = counts.get(codim, 0) + 1
    for codim, count in counts.items():
        if counts.get(DIM_X - codim, 0) != count:
            raise NotSelfDualError(
                f"count at codim {codim} differs from count at {DIM_X - codim}")
    size = len(classes)
    entries = []
    for ci, xi in classes:
        for cj, xj in classes:
            if ci + cj == DIM_X:
                entries.append(intersection_pairing(xi, xj))
            else:
                entries.append(0)
    return IntMatrix(size, size, entries)


def tate_iso_check(classes, inverted_primes) -> bool:
    """True iff the pairing matrix determinant is a unit after localization."""
    return invertible_over_localization(pairing_matrix(classes), inverted_primes)


def c3_twist_residual() -> Poly:
    """Difference prod(x_i + h) - (e3 + h*e2 + h^2*e1) in Z[x1,x2,x3,h]."""
    x1, x2, x3, h = Poly.variables_of("x1", "x2", "x3", "h")
    lhs = (x1 + h) * (x2 + h) * (x3 + h)
    e1 = x1 + x2 + x3
    e2 = x1 * x2 + x1 * x3 + x2 * x3
    e3 = x1 * x2 * x3
    return lhs - (e3 + h * e2 + h * h * e1)


def verify_c3_twist_identity() -> bool:
    """Top Chern class of a line-bundle twist of a rank-3 bundle.

    The expansion of c3(L (x) E) as e3 + c1(L) e2 + c1(L)^2 e1 holds up to an
    exact residual of h^3, hence on any base where h^3 = 0 (such as P^2).
    """
    h = Poly.var("h")
    return c3_twist_residual() == h ** 3
