"""Quaternion algebras over exact scalars and split matrix algebras.

Quaternion elements live over int, Fraction or Poly components (always
characteristic zero; modular components are deliberately rejected).  Split
algebras M_n(F_p) are handled over prime fields, small enough in the
enumeration that right ideals can be listed outright.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import combinations, product
from operator import index, mul

from .exact import Poly, Record, is_prime, row_echelon


_SCALAR_TYPES = (int, Fraction, Poly)


def _check_scalar(v, what: str):
    if not isinstance(v, _SCALAR_TYPES):
        raise TypeError(f"{what} must be int, Fraction or Poly, got {type(v).__name__}")
    return v


class QuatAlgebra(Record):
    """The four-dimensional algebra with i*i = a, j*j = b, i*j = -j*i = k."""

    __slots__ = ("a", "b")

    def __post_init__(self):
        for name, v in (("a", self.a), ("b", self.b)):
            _check_scalar(v, f"structure constant {name}")
            if v == 0:
                raise ValueError(f"structure constant {name} must be nonzero")

    def element(self, x=0, y=0, z=0, w=0) -> "QuatElement":
        return QuatElement(self, x, y, z, w)

    def gen_i(self) -> "QuatElement":
        return self.element(0, 1)

    def gen_j(self) -> "QuatElement":
        return self.element(0, 0, 1)

    def gen_k(self) -> "QuatElement":
        return self.element(0, 0, 0, 1)

    @classmethod
    def symbolic(cls) -> "QuatAlgebra":
        return cls(Poly.var("a"), Poly.var("b"))


class QuatElement(Record):
    """x + y*i + z*j + w*k with components in the algebra's base ring.

    Ring results are built with ``_trusted``: sums and products of checked
    components are scalars.
    """

    __slots__ = ("algebra", "x", "y", "z", "w")

    def __post_init__(self):
        for v in (self.x, self.y, self.z, self.w):
            _check_scalar(v, "component")

    def components(self):
        return (self.x, self.y, self.z, self.w)

    def _same(self, other: "QuatElement"):
        if self.algebra != other.algebra:
            raise ValueError("elements of different quaternion algebras")

    def __add__(self, other: "QuatElement") -> "QuatElement":
        self._same(other)
        return QuatElement._trusted(self.algebra, self.x + other.x, self.y + other.y,
                                    self.z + other.z, self.w + other.w)


def quat_mul(u: QuatElement, v: QuatElement) -> QuatElement:
    """Product under i*i = a, j*j = b, i*j = -j*i = k."""
    u._same(v)
    a, b = u.algebra.a, u.algebra.b
    x1, y1, z1, w1 = u.components()
    x2, y2, z2, w2 = v.components()
    return QuatElement._trusted(
        u.algebra,
        x1 * x2 + a * y1 * y2 + b * z1 * z2 - a * b * w1 * w2,
        x1 * y2 + y1 * x2 - b * z1 * w2 + b * w1 * z2,
        x1 * z2 + z1 * x2 + a * y1 * w2 - a * w1 * y2,
        x1 * w2 + w1 * x2 + y1 * z2 - z1 * y2,
    )


def nrd(u: QuatElement):
    """Reduced norm x^2 - a*y^2 - b*z^2 + a*b*w^2, exact (symbolic if needed)."""
    a, b = u.algebra.a, u.algebra.b
    x, y, z, w = u.components()
    return x * x - a * y * y - b * z * z + a * b * w * w


def symbolic_quaternion(prefix: str, algebra: QuatAlgebra) -> QuatElement:
    """Quaternion with fresh polynomial components x<prefix>, y<prefix>, ..."""
    return algebra.element(*(Poly.var(n + prefix) for n in "xyzw"))


# -- exact linear algebra over F_p and Q -----------------------------------


def rank_modp(rows, p: int) -> int:
    """Rank of a matrix over F_p (rows of ints)."""
    return len(row_echelon(rows, p)[1])


def rank_fractions(rows) -> int:
    """Rank of a matrix over Q (rows of ints or Fractions)."""
    return len(row_echelon(rows)[1])


# -- split matrix algebras ---------------------------------------------------


class SplitAlgebra(Record):
    """M_n(F_p) for a prime p."""

    __slots__ = ("n", "p")

    def __post_init__(self):
        if index(self.n) < 1:
            raise ValueError("degree must be positive")
        if not isinstance(self.p, int) or not is_prime(self.p):
            raise ValueError("base field order must be prime")

    def matrix(self, rows) -> tuple:
        n, p = self.n, self.p
        rows = tuple(tuple(index(v) % p for v in row) for row in rows)
        if len(rows) != n or any(len(r) != n for r in rows):
            raise ValueError(f"expected an {n}x{n} matrix")
        return rows

    @lru_cache(maxsize=1024)
    def unit_matrix(self, i: int, j: int) -> tuple:
        return self.matrix([[1 if (r, c) == (i, j) else 0 for c in range(self.n)]
                            for r in range(self.n)])

    def all_elements(self):
        """Every element; only sensible over a small finite field."""
        cells = self.n * self.n
        for values in product(range(self.p), repeat=cells):
            yield tuple(tuple(values[r * self.n + c] for c in range(self.n))
                        for r in range(self.n))

    def mat_mul(self, x, y) -> tuple:
        cols = tuple(zip(*y))
        return tuple(tuple(sum(map(mul, row, col)) % self.p for col in cols) for row in x)


def independent(alg: SplitAlgebra, elements) -> bool:
    """True iff no nonzero t satisfies e*t = 0 for every element e.

    For a split algebra this is equivalent to the stacked (l*n) x n matrix
    having full column rank n.
    """
    elements = tuple(elements)
    if not elements:
        raise ValueError("independence of an empty tuple")
    stacked = [row for e in elements for row in alg.matrix(e)]
    return rank_modp(stacked, alg.p) == alg.n


def independent_left_ideal(alg: SplitAlgebra, elements) -> bool:
    """Second route: the left ideal generated by the tuple is all of M_n(F_p).

    Spans {u * e : u a matrix unit, e in elements} and tests for dimension
    n^2; agrees with the rank criterion and serves as its cross-check.
    """
    elements = tuple(elements)
    if not elements:
        raise ValueError("independence of an empty tuple")
    rows = [row for e in elements for row in _left_translates(alg, alg.matrix(e))]
    return rank_modp(rows, alg.p) == alg.n * alg.n


@lru_cache(maxsize=1024)
def _left_translates(alg: SplitAlgebra, e: tuple) -> tuple:
    """The n^2 flattened products u * e, u running over the matrix units."""
    n = alg.n
    return tuple(tuple(v for row in alg.mat_mul(alg.unit_matrix(i, j), e) for v in row)
                 for i in range(n) for j in range(n))


# -- subspaces and right ideals over small prime fields ----------------------


def subspaces(n: int, k: int, p: int):
    """All k-dimensional subspaces of F_p^n as reduced-row-echelon bases.

    Enumerates pivot column patterns, then all assignments of the free
    entries; each subspace appears exactly once.
    """
    if not 0 <= k <= n:
        return
    if k == 0:
        yield ()
        return
    for pivots in combinations(range(n), k):
        free = [(i, j) for i in range(k) for j in range(n)
                if j > pivots[i] and j not in pivots]
        for values in product(range(p), repeat=len(free)):
            rows = [[0] * n for _ in range(k)]
            for i, pc in enumerate(pivots):
                rows[i][pc] = 1
            for (i, j), v in zip(free, values):
                rows[i][j] = v
            yield tuple(tuple(r) for r in rows)


class RightIdeal(Record):
    """A right ideal of M_n(F_p) of rank k*n, recorded by its column space.

    subspace is the RREF basis of U, the common column space; matrix_basis
    holds k*n matrices spanning Hom(V, U).
    """

    __slots__ = ("subspace", "matrix_basis")


def enumerate_right_ideals(alg: SplitAlgebra, k: int):
    """Right ideals of rank k*n in M_n(F_p): one for each k-subspace U.

    The ideal attached to U consists of the matrices whose columns lie in U;
    a basis is {u e_j^T}.  Each candidate is verified to be closed under right
    multiplication by all matrix units before being counted, with one rank
    comparison per candidate: appending every such product to the basis must
    leave its rank unchanged.  Returns (count, ideals) with the ideals sorted
    by their subspace basis.
    """
    if alg.p > 3 or alg.n > 3:
        raise ValueError("enumeration bound is q <= 3 and n <= 3")
    if not 0 <= index(k) <= alg.n:
        raise ValueError("ideal rank parameter out of range")
    n, p = alg.n, alg.p
    ideals = []
    for basis in sorted(subspaces(n, k, p)):
        mats = []
        for u in basis:
            for j in range(n):
                mats.append(tuple(tuple(u[r] if c == j else 0 for c in range(n))
                                  for r in range(n)))
        flat = [[v for row in mat for v in row] for mat in mats]
        products = [[v for row in alg.mat_mul(mat, alg.unit_matrix(i, j)) for v in row]
                    for mat in mats for i in range(n) for j in range(n)]
        if rank_modp(flat + products, p) != rank_modp(flat, p):
            raise AssertionError("candidate is not a right ideal")
        ideals.append(RightIdeal(basis, tuple(mats)))
    return len(ideals), tuple(ideals)
