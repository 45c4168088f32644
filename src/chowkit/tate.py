"""Combinatorics of Tate-motive direct sums for GL_1 of a degree-n algebra.

A multi-index is a strictly increasing tuple inside {1..n}; the summand it
labels sits in twist |I| and shift 2|I| - l(I).  This module enumerates the
multi-indices, counts their Tate patterns, computes the twist expansion of
higher Chern classes under a line bundle as a Poly in the variables c1..cn and
lam, and produces the second-differential matrix between adjacent twist
weights together with an independent derivation of it from the Chern-product
expansion (the lambda-linear coefficient).
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache
from itertools import takewhile
from math import comb, prod
from operator import index

from .exact import Poly, Record, is_prime


LAMBDA = "lam"

# The GL_n pattern has about n^3/6 entries: at n = 64 `chowkit glmotive --json`
# prints 1.2 MB in under a second, and the work grows as n^4 above that.
GL_PATTERN_MAX_DEGREE = 64

# `chowkit d2` prints the dense matrix, and its size, not the time, bounds the
# degree: the largest matrix is 221 x 221 (0.16 MB of JSON) at n = 13, but
# 2,410 x 2,410 at n = 17 (q = 76), 5.8 million entries and 17.6 MB of JSON,
# while the closed form and the Chern-product oracle take about 0.2 s and
# 0.36 s there on a 2-CPU x86 host.  `chowkit d2` refuses larger degrees.
D2_MAX_DEGREE = 13


# -- multi-indices ------------------------------------------------------------


def enumerate_multi_indices(n: int, weight: int):
    """Strictly increasing subsets of {1..n} with element sum equal to weight,
    by length then lexicographic.

    They are generated directly as the partitions of weight into distinct
    parts <= n.
    """
    if n < 1:
        raise ValueError("degree must be at least 1")
    out = []

    def extend(prefix, low, left, rest):
        # Append to prefix `left` more entries from low..n summing to rest.
        if left == 0:
            if rest == 0:
                out.append(tuple(prefix))
            return
        if n * left - left * (left - 1) // 2 < rest:  # largest sum: n, n-1, ...
            return
        for first in range(low, n - left + 2):
            if first * left + left * (left - 1) // 2 > rest:  # smallest: first, first+1, ...
                break
            prefix.append(first)
            extend(prefix, first + 1, left - 1, rest - first)
            prefix.pop()

    # r distinct parts sum to at least r(r+1)/2, so longer subsets are never tried.
    for r in takewhile(lambda r: r * (r + 1) // 2 <= weight, range(n + 1)):
        extend([], 1, r, weight)
    return out


def format_multi_index(index) -> str:
    return "{" + ",".join(str(i) for i in index) + "}"


# -- Tate patterns ------------------------------------------------------------
# A Tate pattern is a Counter (twist q, shift p) -> multiplicity.


def _pattern_product(first: int, n: int) -> Counter:
    """The pattern counted off prod_{i=first..n} (1 + y t^i).

    The factor for i either skips i or adds it to the multi-index, which
    raises the twist by i and the shift by 2i - 1.
    """
    pattern = Counter({(0, 0): 1})
    for i in range(first, n + 1):
        for (q, p), m in list(pattern.items()):
            pattern[q + i, p + 2 * i - 1] += m
    return pattern


def gl_tate_pattern(n: int) -> Counter:
    """Tate pattern of GL_n: one summand Z(|I|)[2|I|-l(I)] per multi-index
    I in {1..n}, counted off prod_{i=1..n} (1 + y t^i)."""
    if n < 1:
        raise ValueError("degree must be at least 1")
    if n > GL_PATTERN_MAX_DEGREE:
        raise ValueError(f"degree must be at most {GL_PATTERN_MAX_DEGREE}")
    return _pattern_product(1, n)


def max_weight(n: int) -> int:
    return n * (n + 1) // 2


def slice_patterns(n: int) -> dict:
    """Slice-by-slice pattern of the norm-hypersurface motive for prime n.

    Twist q carries one summand Z(q)[2q - l(I)] per multi-index of weight q
    for 1 <= q <= n(n+1)/2; twist n^2 carries a single Z(n^2)[2n^2 - 2]; all
    other twists are empty.  The slices are listed, not counted, so that
    slice_consistency compares two independent routes.
    """
    if not is_prime(n):
        raise ValueError("slice patterns are stated for prime degree")
    out = {q: Counter((q, 2 * q - len(index)) for index in enumerate_multi_indices(n, weight=q))
           for q in range(1, max_weight(n) + 1)}
    out[n * n] = Counter({(n * n, 2 * n * n - 2): 1})
    return out


def slice_consistency(n: int) -> bool:
    """Pattern-level agreement of the two descriptions of the motive.

    The GL pattern minus its empty-index summand, plus the extra top twist
    (n^2, 2n^2 - 2), must equal the union of the slice patterns.
    """
    lhs = gl_tate_pattern(n) - Counter({(0, 0): 1}) + Counter({(n * n, 2 * n * n - 2): 1})
    return lhs == sum(slice_patterns(n).values(), Counter())


# -- Chern class twist expansion ----------------------------------------------


@lru_cache(maxsize=None)
def chern_twist(k: int) -> Poly:
    """Expansion of c_k of a class twisted by a line bundle with c_1 = lambda.

    c_k picks up the alternating tail sum_i (-1)^i C(k-1, i) lambda^i c_{k-i},
    i running 0..k-1 so that every subscript stays positive: a Poly in the
    variables c1..ck and lam, where the unit class c_0 never appears.
    """
    if k < 1:
        raise ValueError("twist expansion starts at c_1")
    lam = Poly.var(LAMBDA)
    return sum(comb(k - 1, i) * (-lam) ** i * Poly.var(f"c{k - i}") for i in range(k))


def chern_twist_product(index) -> Poly:
    """Product of the twist expansions over the entries of a multi-index."""
    return prod(map(chern_twist, index), start=Poly.const(1))


# -- the second differential ---------------------------------------------------


class D2Matrix(Record):
    """Differential data between twist weights q and q+1 for degree n.

    Entry (I, J) is i_t mod n when J is I with one index bumped by one, else
    zero; every entry is implicitly scaled by the symbolic unit c*[A], which
    is never given a numeric value.
    """

    __slots__ = ("n", "q", "row_indices", "col_indices", "entries")

    def to_dict(self) -> dict:
        """The matrix as a JSON-ready dict with its index labels and unit."""
        return {
            "n": self.n,
            "q": self.q,
            "rows": [format_multi_index(i) for i in self.row_indices],
            "cols": [format_multi_index(j) for j in self.col_indices],
            "entries": [list(row) for row in self.entries],
            "unit": "c*[A]",
        }


def _closed_form_column(col) -> dict:
    """Column col as {row: entry}: lowering one entry j_t of col to j_t - 1
    gives the row, and the entry is i_t = j_t - 1 (reduced mod n by _d2)."""
    return {col[:t] + (j - 1,) + col[t + 1:]: j - 1 for t, j in enumerate(col)}


@lru_cache(maxsize=None)
def _dual_twist(k: int) -> tuple:
    """chern_twist(k) in Z[lambda]/(lambda^2): its lambda^0 and lambda^1 parts,
    each as {sorted Chern subscripts: coefficient}.  The subscripts are parsed
    from the variable names, since Poly sorts c10 before c2."""
    parts = (chern_twist(k).coefficient(LAMBDA, power) for power in (0, 1))
    return tuple({tuple(sorted(int(name[1:]) for name, e in zip(p.variables, exps)
                               for _ in range(e))): c
                  for exps, c in p.terms.items()} for p in parts)


def _times(x: dict, y: dict, out: dict) -> dict:
    """Add the product of two subscript tables into out, and return out."""
    for i, a in x.items():
        for j, b in y.items():
            key = tuple(sorted(i + j))
            out[key] = out.get(key, 0) + a * b
    return out


def _lambda_column(col) -> dict:
    """Column col as {row: entry}: minus the lambda-linear coefficient of its
    Chern product (the dual line bundle negates lambda), multiplied out in
    Z[lambda]/(lambda^2) as (a + lambda b)(c + lambda d) = ac + lambda (ad + bc)."""
    value, linear = {(): 1}, {}
    for a, b in map(_dual_twist, col):
        value, linear = _times(value, a, {}), _times(value, b, _times(linear, a, {}))
    return {row: -c for row, c in linear.items()}


def _d2(n: int, q: int, column) -> D2Matrix:
    n, q = index(n), index(q)
    if not is_prime(n):
        raise ValueError("differential matrices are stated for prime degree")
    if not 1 <= q <= max_weight(n):
        raise ValueError(f"twist weight must lie in 1..{max_weight(n)}")
    rows = tuple(enumerate_multi_indices(n, weight=q))
    cols = tuple(enumerate_multi_indices(n, weight=q + 1))
    position = {row: i for i, row in enumerate(rows)}
    entries = [[0] * len(cols) for _ in rows]
    for j, col in enumerate(cols):
        # Keys that are not multi-indices (a repeated or zero subscript) are
        # not rows; their entries vanish.
        for row, value in column(col).items():
            if row in position:
                entries[position[row]][j] = value % n
    return D2Matrix(n, q, rows, cols, tuple(map(tuple, entries)))


def d2_matrix(n: int, q: int) -> D2Matrix:
    """Second-differential matrix from twist q into twist q+1.

    Computed from the closed form alone: bump one index, entry i_t mod n.
    The independent Chern-product route, d2_matrix_from_chern, is compared
    with it where a comparison is reported (the d2_oracle check of
    `chowkit verify all`, `chowkit d2`, and the tests), not on every call.
    """
    return _d2(n, q, _closed_form_column)


def d2_matrix_from_chern(n: int, q: int) -> D2Matrix:
    """The differential matrix by the lambda-coefficient route alone.

    Column J is the lambda-linear coefficient of the product of the twisted
    Chern classes c_j, j in J, under the dual line bundle; entry (I, J) is the
    coefficient of the monomial prod_{i in I} c_i, reduced mod n.  The route
    never consults the closed form.
    """
    return _d2(n, q, _lambda_column)


# -- split-case pattern checks --------------------------------------------------


def consistency_report() -> dict:
    """Split-specialization checks of the small-degree decompositions.

    GL of a quaternion algebra: Z + conic(1)[1] + Z(3)[4] with the conic read
    as P^1 and the twisted summand read as Z must reproduce the GL_2 pattern.
    SL_1: Z + Z(2)[3] must reproduce the norm-one pattern for degree 2, read
    off prod_{i=2..n} (1 + y t^i) as M(SL_n) has one summand per multi-index
    in {2..n}.  The slice consistency identity is checked for n = 2 and 3.
    """
    point = Counter({(0, 0): 1})
    p1 = Counter({(0, 0): 1, (1, 2): 1})
    conic = Counter({(q + 1, p + 1): m for (q, p), m in p1.items()})
    gl_ok = point + conic + Counter({(3, 4): 1}) == gl_tate_pattern(2)

    sl_ok = point + Counter({(2, 3): 1}) == _pattern_product(2, 2)

    slices_ok = {n: slice_consistency(n) for n in (2, 3)}

    return {
        "gl_quaternion_split": gl_ok,
        "sl_quaternion_split": sl_ok,
        "slice_consistency": slices_ok,
        "all": gl_ok and sl_ok and all(slices_ok.values()),
    }
