"""Combinatorics of Tate-motive direct sums for GL_1 of a degree-n algebra.

A multi-index is a strictly increasing tuple inside {1..n}; the summand it
labels sits in twist |I| and shift 2|I| - l(I).  This module enumerates the
patterns, computes the twist expansion of higher Chern classes under a line
bundle as a Poly in the variables c1..cn and lam, and produces the
second-differential matrix between adjacent twist weights together with an
independent derivation of it from the Chern-product expansion (the
lambda-linear coefficient).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from math import comb, prod

from .exact import Poly, is_prime


class NotPrimeError(ValueError):
    """Degree parameter must be prime."""


class SliceRangeError(ValueError):
    """Twist weight outside the populated range."""


LAMBDA = "lam"


# -- multi-indices ------------------------------------------------------------


def index_weight(index) -> int:
    return sum(index)


def enumerate_multi_indices(n: int, weight: int | None = None):
    """Strictly increasing subsets of {1..n}, by length then lexicographic.

    With a weight filter, only subsets with element sum equal to weight,
    generated directly as the partitions of weight into distinct parts <= n.
    """
    if n < 1:
        raise ValueError("degree must be at least 1")
    if weight is None:
        return [combo for r in range(n + 1) for combo in combinations(range(1, n + 1), r)]
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

    for r in range(n + 1):
        extend([], 1, r, weight)
    return out


def format_multi_index(index) -> str:
    return "{" + ",".join(str(i) for i in index) + "}"


def parse_multi_index(text: str) -> tuple:
    body = text.strip()
    if body.startswith("{") and body.endswith("}"):
        body = body[1:-1]
    body = body.strip()
    if not body:
        return ()
    values = tuple(int(v) for v in body.split(","))
    if any(values[i] >= values[i + 1] for i in range(len(values) - 1)):
        raise ValueError("multi-index must be strictly increasing")
    return values


# -- Tate patterns ------------------------------------------------------------


class TatePattern:
    """Finitely supported multiplicity table (twist q, shift p) -> m >= 0."""

    __slots__ = ("entries",)

    def __init__(self, entries=None):
        cleaned = {}
        if entries:
            for (q, p), m in dict(entries).items():
                m = int(m)
                if m < 0:
                    raise ValueError("multiplicities must be nonnegative")
                if m:
                    cleaned[(int(q), int(p))] = cleaned.get((int(q), int(p)), 0) + m
        object.__setattr__(self, "entries", cleaned)

    def __setattr__(self, name, value):
        raise AttributeError("TatePattern is immutable")

    @classmethod
    def tate(cls, q: int, p: int) -> "TatePattern":
        return cls({(q, p): 1})

    def __add__(self, other: "TatePattern") -> "TatePattern":
        out = dict(self.entries)
        for key, m in other.entries.items():
            out[key] = out.get(key, 0) + m
        return TatePattern(out)

    def twist_shift(self, dq: int, dp: int) -> "TatePattern":
        return TatePattern({(q + dq, p + dp): m for (q, p), m in self.entries.items()})

    def remove(self, q: int, p: int) -> "TatePattern":
        out = dict(self.entries)
        key = (q, p)
        if out.get(key, 0) < 1:
            raise ValueError("pattern does not contain that summand")
        out[key] -= 1
        return TatePattern(out)

    def total(self) -> int:
        return sum(self.entries.values())

    def __eq__(self, other):
        if not isinstance(other, TatePattern):
            return NotImplemented
        return self.entries == other.entries

    def __hash__(self):
        return hash(frozenset(self.entries.items()))

    def __repr__(self):
        body = ", ".join(f"({q},{p}):{m}" for (q, p), m in sorted(self.entries.items()))
        return "TatePattern{" + body + "}"

    def to_json(self) -> str:
        return json.dumps({f"({q},{p})": m for (q, p), m in sorted(self.entries.items())},
                          sort_keys=True)


# Split building blocks: projective spaces and the split conic summand.
PATTERN_POINT = TatePattern.tate(0, 0)
PATTERN_P1 = TatePattern({(0, 0): 1, (1, 2): 1})


def gl_tate_pattern(n: int) -> TatePattern:
    """Tate pattern of GL_n: one summand Z(|I|)[2|I|-l(I)] per multi-index."""
    out = {}
    for index in enumerate_multi_indices(n):
        key = (index_weight(index), 2 * index_weight(index) - len(index))
        out[key] = out.get(key, 0) + 1
    return TatePattern(out)


def max_weight(n: int) -> int:
    return n * (n + 1) // 2


def slice_patterns(n: int) -> dict:
    """Slice-by-slice pattern of the norm-hypersurface motive for prime n.

    Twist q carries one summand Z(q)[2q - l(I)] per multi-index of weight q
    for 1 <= q <= n(n+1)/2; twist n^2 carries a single Z(n^2)[2n^2 - 2]; all
    other twists are empty.
    """
    if not is_prime(n):
        raise NotPrimeError("slice patterns are stated for prime degree")
    out = {}
    for q in range(1, max_weight(n) + 1):
        entries = {}
        for index in enumerate_multi_indices(n, weight=q):
            key = (q, 2 * q - len(index))
            entries[key] = entries.get(key, 0) + 1
        out[q] = TatePattern(entries)
    out[n * n] = TatePattern.tate(n * n, 2 * n * n - 2)
    return out


def slice_consistency(n: int) -> bool:
    """Pattern-level agreement of the two descriptions of the motive.

    The GL pattern minus its empty-index summand, plus the extra top twist
    (n^2, 2n^2 - 2), must equal the union of the slice patterns.
    """
    lhs = gl_tate_pattern(n).remove(0, 0) + TatePattern.tate(n * n, 2 * n * n - 2)
    rhs = TatePattern()
    for pattern in slice_patterns(n).values():
        rhs = rhs + pattern
    return lhs == rhs


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


@dataclass(frozen=True)
class D2Matrix:
    """Differential data between twist weights q and q+1 for degree n.

    Entry (I, J) is i_t mod n when J is I with one index bumped by one, else
    zero; every entry is implicitly scaled by the symbolic unit c*[A], which
    is never given a numeric value.
    """

    n: int
    q: int
    row_indices: tuple
    col_indices: tuple
    entries: tuple

    def entry(self, i: int, j: int) -> int:
        return self.entries[i][j]

    def to_json(self) -> str:
        return json.dumps(
            {
                "n": self.n,
                "q": self.q,
                "rows": [format_multi_index(i) for i in self.row_indices],
                "cols": [format_multi_index(j) for j in self.col_indices],
                "entries": [list(row) for row in self.entries],
                "unit": "c*[A]",
            },
            sort_keys=True,
        )


def _closed_form_column(n: int, col):
    """Entry function of column col: i_t mod n where col bumps row's i_t by one."""
    def entry(row) -> int:
        if len(row) != len(col):
            return 0
        diffs = [(a, b) for a, b in zip(row, col) if a != b]
        if len(diffs) != 1:
            return 0
        a, b = diffs[0]
        if b != a + 1:
            return 0
        return a % n
    return entry


def _lambda_column(n: int, col):
    """Entry function of column col: the lambda-linear coefficient of its Chern
    product under the dual line bundle, expanded once for the whole column.

    The dual bundle (lambda -> -lambda) negates the lambda-linear coefficient.
    Each monomial of it is read back as the multiset of its Chern subscripts,
    parsed from the variable names, since Poly sorts c10 before c2.
    """
    linear = -chern_twist_product(col).coefficient(LAMBDA, 1)
    table = {}
    for exps, c in linear.terms.items():
        row = sorted(int(name[1:]) for name, e in zip(linear.variables, exps) for _ in range(e))
        table[tuple(row)] = c
    return lambda row: table.get(tuple(row), 0) % n


def _d2(n: int, q: int, column) -> D2Matrix:
    if not is_prime(n):
        raise NotPrimeError("differential matrices are stated for prime degree")
    if not 1 <= q <= max_weight(n):
        raise SliceRangeError(f"twist weight must lie in 1..{max_weight(n)}")
    rows = tuple(enumerate_multi_indices(n, weight=q))
    cols = tuple(enumerate_multi_indices(n, weight=q + 1))
    columns = [column(n, c) for c in cols]
    entries = tuple(tuple(entry(r) for entry in columns) for r in rows)
    return D2Matrix(n, q, rows, cols, entries)


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
    SL_1: Z + Z(2)[3] must reproduce the norm-one pattern for degree 2.  The
    slice consistency identity is checked for n = 2 and 3.
    """
    gl_rhs = PATTERN_POINT + PATTERN_P1.twist_shift(1, 1) + TatePattern.tate(3, 4)
    gl_ok = gl_rhs == gl_tate_pattern(2)

    sl_rhs = PATTERN_POINT + TatePattern.tate(2, 3)
    sl_expected = TatePattern({(0, 0): 1, (2, 3): 1})
    sl_ok = sl_rhs == sl_expected

    slices_ok = {n: slice_consistency(n) for n in (2, 3)}

    return {
        "gl_quaternion_split": gl_ok,
        "sl_quaternion_split": sl_ok,
        "slice_consistency": slices_ok,
        "all": gl_ok and sl_ok and all(slices_ok.values()),
    }
