"""Chow groups of the split hyperplane section X of Gr(3, 6).

X is the smooth 8-fold cut out of Gr(3, 6) by equating the determinants of the
two 3x3 blocks of a 6x3 point matrix.  Pull-back identifies CH^i(X) with
CH^i(Gr) for i <= 3, push-forward identifies CH^i(X) with CH^(i+1)(Gr) for
i >= 5, and in the middle degree only the rank-3 pulled-back part is modelled
(the extra vanishing-cycle generator has no rational representative and is
deliberately excluded; the certificates below only ever need the rank-3 part).

Labels therefore carry |parts| = codim for codim <= 4 and |parts| = codim + 1
for codim >= 5; degree 5 labels do not exist.  So a class in CH^codim(X) is
the GrChowClass of its labels, and section_codim reads codim back off the
label degree.  Multiplying by the hyperplane class costs one Pieri step except
out of the middle degree, where push-forward and pull-back force two.
"""

from __future__ import annotations

from .exact import IntMatrix, Poly, det_exact, invertible_over_localization
from .schubert import GrChowClass, box_partitions, duality_pairing, pieri

K, N = 3, 6
COLS = N - K
DIM_GR = K * COLS          # 9
DIM_X = DIM_GR - 1         # 8
MIDDLE = DIM_X // 2        # 4


def label_weight(codim: int) -> int:
    """Degree of the Schubert labels used in CH^codim(X)."""
    if not 0 <= codim <= DIM_X:
        raise ValueError("codimension outside 0..8")
    return codim if codim <= MIDDLE else codim + 1


def section_codim(degree: int) -> int:
    """Codimension in X of the classes with labels of this degree.

    The inverse of label_weight: a section class is the GrChowClass of its
    labels, and its ``codim`` attribute is the label degree.
    """
    if degree == MIDDLE + 1:
        raise ValueError("labels of degree 5 do not occur in the section ring")
    return degree if degree <= MIDDLE else degree - 1


def section_class(codim: int, terms) -> GrChowClass:
    """The class in CH^codim(X) with the given {label: coefficient} terms.

    GrChowClass cleans the labels and checks them against the 3x3 box and the
    label degree of CH^codim(X).
    """
    return GrChowClass(K, N, label_weight(codim), terms)


def fundamental_class() -> GrChowClass:
    return section_class(0, {(): 1})


def point_class() -> GrChowClass:
    return section_class(8, {(3, 3, 3): 1})


def hyperplane_mul(x: GrChowClass) -> GrChowClass:
    """Product with the hyperplane class of X.

    One Pieri step on labels in every degree except the middle one, where the
    push-forward/pull-back detour costs two Pieri steps (labels jump from
    degree 4 to degree 6).
    """
    codim = section_codim(x.codim)
    if codim >= DIM_X:
        raise ValueError("no room above the top degree")
    product = pieri(x)
    return pieri(product) if codim == MIDDLE else product


def intersection_pairing(x: GrChowClass, y: GrChowClass) -> int:
    """Intersection number of classes with codim(x) + codim(y) = 8.

    Away from the middle degree the label degrees already complement to 9 and
    the Grassmannian duality pairing applies.  Two middle classes pair through
    the ambient triple product with one extra hyperplane factor, which by the
    projection formula is the duality pairing of pieri(x) with y; this rule
    reproduces the reference Gram matrix exactly.
    """
    codim = section_codim(x.codim)
    if codim + section_codim(y.codim) != DIM_X:
        raise ValueError("codimensions must sum to 8")
    return duality_pairing(pieri(x) if codim == MIDDLE else x, y)


def gram_matrix(classes) -> IntMatrix:
    """Matrix of pairwise intersection numbers of middle-degree classes."""
    classes = list(classes)
    for c in classes:
        if section_codim(c.codim) != MIDDLE:
            raise ValueError("Gram matrix is defined for middle-degree classes")
    return pairing_matrix([(MIDDLE, c) for c in classes])


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
    Its total codimension is homogeneous, so c_d is a section class of codim
    total - d.
    """
    if i not in _CYCLE_TABLE:
        raise ValueError("rational cycles are numbered 1..5")
    total, table = _CYCLE_TABLE[i]
    return tuple(section_class(total - d, table[d]) for d in range(3))


def format_cycle(cycle) -> str:
    """A cycle (c0, c1, c2) as "[c0] + H*[c1] + H^2*[c2]", zero terms left out, or "0"."""
    terms = [f"{prefix}[{c}]" for prefix, c in zip(("", "H*", "H^2*"), cycle) if not c.is_zero]
    return " + ".join(terms) or "0"


def verify_cycle_recursion(i: int):
    """Check that hyperplane * cycle(i) is cycle(i+1) modulo 3.

    Returns (holds, residual) where the residual is the triple of differences,
    component by component, with coefficients reduced mod 3 to -1, 0 or 1; the
    recursion is a verification of the stored table, not a construction.  The
    hyperplane class of X and H come from different factors, so they commute
    and the product acts on each component c_d alone.
    """
    if not 1 <= i <= 4:
        raise ValueError("recursion steps are numbered 1..4")
    diffs = (hyperplane_mul(c) - c_next
             for c, c_next in zip(rational_cycle(i), rational_cycle(i + 1)))
    residual = tuple(GrChowClass(K, N, d.codim, {p: (v + 1) % 3 - 1 for p, v in d.terms.items()})
                     for d in diffs)
    return all(r.is_zero for r in residual), residual


# -- certificates -------------------------------------------------------------


def reference_bases() -> dict:
    """The certified generating sets of CH^c(X) for c in 1, 2, 3, 5, 6, 7.

    These are exactly the nonzero cycle components of the matching
    codimension, in the order of standard_collection; their unimodularity is
    what basis_certificate verifies.
    """
    collection = standard_collection()
    return {c: [cls for codim, cls in collection if codim == c and not cls.is_zero]
            for c in (1, 2, 3, 5, 6, 7)}


def middle_classes():
    """The three pulled-back middle-degree label classes."""
    return tuple(section_class(4, {p: 1}) for p in ((3, 1), (2, 2), (2, 1, 1)))


def basis_certificate(classes, codim: int) -> bool:
    """True iff the classes are a Z-basis of the label lattice in CH^codim(X).

    Expresses the classes in the Schubert label basis and demands an
    unimodular coefficient matrix (determinant +-1).
    """
    classes = list(classes)
    labels = box_partitions(K, COLS, weight_filter=label_weight(codim))
    if len(classes) != len(labels):
        raise ValueError(f"need {len(labels)} classes at codim {codim}, got {len(classes)}")
    rows = []
    for cls in classes:
        if section_codim(cls.codim) != codim:
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
            coll.append((section_codim(comp.codim), comp))
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
            raise ValueError(f"count at codim {codim} differs from count at {DIM_X - codim}")
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
