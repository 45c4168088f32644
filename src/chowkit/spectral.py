"""Symbolic slice spectral sequence in weights 1..3.

Groups are finite direct sums of symbolic summands (Z, nZ, Z/m, named atoms
and their n-th power subgroups) rather than concrete abelian groups: the
answers of the computation are expressed in tokens like F* that have no finite
model, and the only operation the pages ever need is taking the kernel and
cokernel of a surjection "multiply by a unit mod n, then reduce".  The unit is
carried symbolically and never consulted by the rewrite rules, which is the
precise sense in which the output does not depend on it.
"""

from __future__ import annotations

from operator import index

from .exact import Record, is_prime
from .tate import d2_matrix, enumerate_multi_indices


# -- symbolic groups -----------------------------------------------------------
# A group is a tuple of summands and () is zero.  A summand is a (kind, text)
# pair: the kind is "Z", "nZ" (the index-n subgroup of Z), "cyclic", "atom" (a
# named group) or "power" (the n-th powers of an atom), and the text is how it
# renders.


ZERO = ()
Z = (("Z", "Z"),)
NZ = (("nZ", "nZ"),)


def cyclic(order: int) -> tuple:
    order = index(order)
    if order < 1:
        raise ValueError("cyclic order must be positive")
    # Z/1 is trivial.
    return ZERO if order == 1 else (("cyclic", f"Z/{order}"),)


def atom(name: str) -> tuple:
    return (("atom", name),)


def power_n(name: str) -> tuple:
    """The subgroup of n-th powers (elements divisible by n) of an atom."""
    return (("power", f"({name})^n"),)


def direct_sum(parts) -> tuple:
    """The summands of the parts in order; empty sums are zero."""
    return tuple(summand for part in parts for summand in part)


def render_group(g: tuple) -> str:
    return " + ".join(text for _, text in g) or "0"


# -- the coefficient tables -----------------------------------------------------


def cech_group(n: int, p: int, w: int) -> tuple:
    """Motivic cohomology of the Cech object of the conic-like base, w <= 2.

    Weight 0 is Z in degree 0; weight 1 is the units F* in degree 1 and Z/n in
    degree 3 (the cyclic group generated by the algebra class); weight 2 keeps
    the field cohomology H^{p,2}(F) through degree 2 and the reduction
    K_1(F)/n[A] in degree 4.
    """
    n, p, w = index(n), index(p), index(w)
    if w < 0 or w > 2:
        raise ValueError("coefficient tables stop at weight 2")
    if w == 0:
        return Z if p == 0 else ZERO
    if w == 1:
        if p == 1:
            return atom("F*")
        if p == 3:
            return cyclic(n)
        return ZERO
    if p <= 2:
        return atom(f"H^{{{p},2}}(F)")
    if p == 4:
        return atom("K1(F)/n[A]")
    return ZERO


# -- pages ---------------------------------------------------------------------


class Differential(Record):
    """A d_2 arrow (p, q) -> (p+2, q-1) given by a unit times reduction.

    factor is the bumped index value i_t mod n, a unit mod n; unit is the
    symbolic unit carried along, never consulted.
    """

    __slots__ = ("source", "target", "factor", "unit")


class E2Page(Record):
    __slots__ = ("n", "weight", "cells", "differentials")

    def __hash__(self):
        # cells stays a dict, so the field-tuple hash would fail on it.
        return hash((self.n, self.weight, frozenset(self.cells.items()), self.differentials))

    def cell(self, p: int, q: int) -> tuple:
        return self.cells.get((p, q), ZERO)

    def support(self):
        return sorted(self.cells)


def _row_summands(n: int, j: int, q: int):
    """Cell contributions of twist-q slices in weight j.

    Each multi-index I of weight q contributes the coefficient group
    H^(p - q + l(I), j - q) at column p; returns (index, p, group) triples for
    the nonzero ones.
    """
    out = []
    w = j - q
    for index in enumerate_multi_indices(n, weight=q):
        shift = 2 * q - len(index)
        # Nonzero table columns for this coefficient weight.
        for p0 in range(0, 5):
            group = cech_group(n, p0, w)
            if not group:
                continue
            p = p0 + shift - q
            out.append((index, p, group))
    return out


def build_e2(n: int, j: int, unit: str = "c") -> E2Page:
    """The weight-j E2 page for prime degree n, with differentials attached.

    Row q collects the coefficient groups of the twist-q slices; cells are
    nonzero only for 0 < q <= j.  A differential is attached from (p, q) to
    (p+2, q-1) whenever both cells are single summands and the matrix entry
    between the corresponding multi-indices is a unit mod n.
    """
    if not is_prime(n):
        raise ValueError("the engine is stated for prime degree")
    if not 1 <= j <= 3:
        raise ValueError("coefficient tables cover weights 1..3")
    # Every twist q <= j <= 3 has a slice: prime n >= 2 gives n(n+1)/2 >= 3.
    members = {}
    for q in range(1, j + 1):
        for index, p, group in _row_summands(n, j, q):
            members.setdefault((p, q), []).append((index, group))
    cells = {key: direct_sum(group for _, group in pairs) for key, pairs in members.items()}

    diffs = []
    for (p, q) in sorted(cells):
        if q < 2:
            continue
        target = (p + 2, q - 1)
        if target not in cells:
            continue
        src = members[(p, q)]
        tgt = members[target]
        if len(src) != 1 or len(tgt) != 1:
            raise ValueError("differential between multi-summand cells is not supported")
        factor = d2_matrix(n, q - 1).entry(tgt[0][0], src[0][0])
        if factor % n:
            diffs.append(Differential((p, q), target, factor, unit))
    return E2Page(n, j, cells, tuple(diffs))


def _kernel(group: tuple) -> tuple:
    if len(group) == 1:
        kind, text = group[0]
        if kind == "Z":
            return NZ
        if kind == "atom":
            return power_n(text)
    raise ValueError(f"no kernel rule for source {render_group(group)}")


def _check_target(group: tuple):
    if len(group) != 1 or group[0][0] not in ("cyclic", "atom"):
        raise ValueError(f"no cokernel rule for target {render_group(group)}")


def apply_d2(page: E2Page) -> E2Page:
    """Resolve every attached differential.

    Each arrow is a surjection G -> G/nG up to a unit: kernels are nZ for a
    free source and the n-th power subgroup for an atom source; cokernels
    vanish.  Cells not touched by any arrow pass through unchanged.
    """
    cells = dict(page.cells)
    for diff in page.differentials:
        source = cells[diff.source]
        target = cells[diff.target]
        _check_target(target)
        cells[diff.source] = _kernel(source)
        cells[diff.target] = ZERO
    cells = {key: g for key, g in cells.items() if g}
    return E2Page(page.n, page.weight, cells, ())


def assemble(page: E2Page) -> dict:
    """Total cohomology by degree, assuming split extensions.

    Requires a page with differentials already resolved, and refuses to run if
    the remaining support admits any d_r arrow with r >= 3 (it never does in
    the implemented weights).  Summands along p + q are listed by decreasing
    filtration; extensions are taken split, which is an assumption recorded by
    the callers that report results.
    """
    if page.differentials:
        raise ValueError("apply_d2 must run before assembly")
    support = page.support()
    for (p, q) in support:
        for (p2, q2) in support:
            r = q - q2 + 1
            if r >= 3 and p2 - p == r:
                raise ValueError(f"support admits a d_{r} arrow from {(p, q)} to {(p2, q2)}")
    out = {}
    for (p, q) in sorted(support, key=lambda pq: (pq[0] + pq[1], -pq[1])):
        total = p + q
        out[total] = direct_sum([out.get(total, ZERO), page.cell(p, q)])
    return out


SPLIT_EXTENSION_NOTE = "extensions across the abutment filtration are taken split"


def weight_table(n: int, j: int, unit: str = "c") -> dict:
    """Assembled weight-j table for degree n: degree -> group."""
    return assemble(apply_d2(build_e2(n, j, unit=unit)))
