"""Exact arithmetic kernel shared by the whole package.

Sparse multivariate polynomials with integer (or exact rational) coefficients,
immutable integer matrices, fraction-free determinants, Smith normal forms
with unimodular transforms, and reduced row echelon forms over F_p and Q.
No floating point appears anywhere: coefficients are Python ints and
``fractions.Fraction`` values, both arbitrary precision.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping, Sequence
from fractions import Fraction
from functools import lru_cache, reduce
from heapq import heapify, heappop, heappush
from itertools import chain, permutations
from operator import add, attrgetter, index, mul, sub


class InexactDivisionError(ArithmeticError):
    """Polynomial division left a nonzero remainder."""


class Record:
    """An immutable value with named fields: the package's one pattern for them.

    A subclass names its fields in ``__slots__``.  The constructor takes every
    field by position, stores them, then calls ``__post_init__``, where a
    subclass checks them; ``_trusted`` stores values known to pass those checks
    without calling it.  Records are equal when they have the same class and
    equal fields, hash as the tuple of their fields and print as
    ``Name(field=value, ...)``; assigning or deleting an attribute raises
    AttributeError.  That is a frozen data class, built without the standard
    module for them, whose import loads ``inspect`` in every process.
    """

    __slots__ = ()

    def __init_subclass__(cls):
        # _values is the tuple of the fields; attrgetter of one name gives the lone value.
        get = attrgetter(*cls.__slots__)
        cls._values = property(get if len(cls.__slots__) > 1 else lambda self: (get(self),))

    def __init__(self, *args):
        names = self.__slots__
        if len(args) != len(names):
            raise TypeError(f"{type(self).__name__}() takes the fields {names}")
        for name, value in zip(names, args):
            object.__setattr__(self, name, value)
        self.__post_init__()

    @classmethod
    def _trusted(cls, *values):
        record = object.__new__(cls)
        for name, value in zip(cls.__slots__, values):
            object.__setattr__(record, name, value)
        return record

    def __post_init__(self):
        pass

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self is other or self._values == other._values

    def __hash__(self):
        return hash(self._values)

    def __reduce__(self):
        return type(self), self._values

    def __repr__(self):
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self.__slots__, self._values))
        return f"{type(self).__qualname__}({fields})"


def _norm_coeff(c):
    """Collapse integral Fractions back to int; keep everything exact."""
    if isinstance(c, Fraction):
        if c.denominator == 1:
            return int(c)
        return c
    if isinstance(c, int):
        return c
    raise TypeError(f"coefficient must be int or Fraction, got {type(c).__name__}")


def _grlex(exps):
    # Graded lexicographic sort key: total degree first, then lex on exponents.
    return (sum(exps), exps)


class Poly:
    """Sparse polynomial in named variables over exact scalars.

    Terms map exponent tuples to coefficients over a tuple of variable names
    sorted by name.  The canonical form stores no zero coefficients and no
    unused variables, so structural equality is ring equality.  Term order is
    graded lexicographic throughout (printing, leading terms, division).

    The public constructor validates and canonicalizes whatever it is given.
    Results built inside the class go through ``_trusted`` instead, which
    relies on this invariant of its inputs: the variables are sorted by name
    and every exponent vector is a tuple of ints, one per variable.  It only
    drops zero coefficients and unused variables and turns integral Fractions
    into ints.
    """

    __slots__ = ("variables", "terms")

    def __init__(self, variables: Sequence[str] = (), terms: Mapping[tuple, object] | None = None):
        variables = tuple(variables)
        if len(set(variables)) != len(variables):
            raise ValueError("variable names must be distinct")
        cleaned = {}
        if terms:
            for exps, coeff in terms.items():
                # Every exponent vector is checked, also under a zero coefficient.
                exps = tuple(map(index, exps))
                if len(exps) != len(variables) or any(e < 0 for e in exps):
                    raise ValueError("exponent vector does not match variable list")
                coeff = _norm_coeff(coeff)
                if coeff:
                    cleaned[exps] = cleaned.get(exps, 0) + coeff
        # Sort the variables by name, so the caller's listing order does not
        # count; _store then drops zero sums and unused variables, so
        # x+0*y == x structurally.
        order = sorted(range(len(variables)), key=variables.__getitem__)
        if order != list(range(len(variables))):
            variables = tuple(variables[i] for i in order)
            cleaned = {tuple(e[i] for i in order): c for e, c in cleaned.items()}
        self._store(variables, cleaned)

    @classmethod
    def _trusted(cls, variables: tuple, terms: dict) -> "Poly":
        """Canonical Poly from terms whose variables and exponents are already canonical."""
        poly = object.__new__(cls)
        poly._store(variables, terms)
        return poly

    def _store(self, variables: tuple, terms: dict):
        # Needs variables sorted by name and int exponent tuples of matching
        # length; drops zero coefficients and unused variables and turns
        # integral Fractions into ints.
        cleaned = {}
        for exps, coeff in terms.items():
            if coeff:
                if type(coeff) is Fraction and coeff.denominator == 1:
                    coeff = coeff.numerator
                cleaned[exps] = coeff
        if not cleaned:
            variables = ()
        elif variables:
            used = [i for i, col in enumerate(zip(*cleaned)) if any(col)]
            if len(used) != len(variables):
                variables = tuple(variables[i] for i in used)
                cleaned = {tuple(e[i] for i in used): c for e, c in cleaned.items()}
        object.__setattr__(self, "variables", variables)
        object.__setattr__(self, "terms", cleaned)

    def __setattr__(self, name, value):
        raise AttributeError("Poly is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls) -> "Poly":
        return cls((), {})

    @classmethod
    def const(cls, c) -> "Poly":
        return cls((), {(): c} if c else {})

    @classmethod
    def var(cls, name: str) -> "Poly":
        return cls((name,), {(1,): 1})

    @classmethod
    def variables_of(cls, *names: str) -> tuple["Poly", ...]:
        return tuple(cls.var(n) for n in names)

    # -- coercion and variable alignment -----------------------------------

    @staticmethod
    def _coerce(value) -> "Poly":
        if isinstance(value, Poly):
            return value
        if isinstance(value, (int, Fraction)):
            return Poly.const(value)
        raise TypeError(f"cannot coerce {type(value).__name__} into Poly")

    @staticmethod
    def _aligned(p: "Poly", q: "Poly"):
        if p.variables == q.variables:
            return p.variables, p.terms, q.terms
        merged = tuple(sorted(set(p.variables) | set(q.variables)))

        def remap(poly):
            if poly.variables == merged:
                return poly.terms
            idx = [merged.index(v) for v in poly.variables]
            out = {}
            for exps, c in poly.terms.items():
                full = [0] * len(merged)
                for pos, e in zip(idx, exps):
                    full[pos] = e
                out[tuple(full)] = c
            return out

        return merged, remap(p), remap(q)

    # -- ring operations ----------------------------------------------------

    def __add__(self, other):
        other = self._coerce(other)
        variables, a, b = self._aligned(self, other)
        out = dict(a)
        for exps, c in b.items():
            out[exps] = out.get(exps, 0) + c
        return Poly._trusted(variables, out)

    __radd__ = __add__

    def __neg__(self):
        return Poly._trusted(self.variables, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other) + (-self)

    def __mul__(self, other):
        other = self._coerce(other)
        variables, a, b = self._aligned(self, other)
        out = {}
        for ea, ca in a.items():
            for eb, cb in b.items():
                key = tuple(map(add, ea, eb))
                out[key] = out.get(key, 0) + ca * cb
        return Poly._trusted(variables, out)

    __rmul__ = __mul__

    def __pow__(self, exponent: int):
        if exponent < 0:
            raise ValueError("negative powers are not polynomial")
        result = Poly.const(1)
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Poly.const(other)
        if not isinstance(other, Poly):
            return NotImplemented
        return self.variables == other.variables and self.terms == other.terms

    def __hash__(self):
        if not self.variables:      # a constant equals its scalar, so hashes like it
            return hash(self.terms.get((), 0))
        return hash((self.variables, frozenset(self.terms.items())))

    # -- structure ----------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda t: _grlex(t[0]), reverse=True)

    def coefficient(self, name: str, power: int) -> "Poly":
        """Coefficient of name**power, as a polynomial in the other variables."""
        if name not in self.variables:
            return self if power == 0 else Poly.zero()
        i = self.variables.index(name)
        rest = self.variables[:i] + self.variables[i + 1:]
        out = {}
        for exps, c in self.terms.items():
            if exps[i] == power:
                key = exps[:i] + exps[i + 1:]
                out[key] = out.get(key, 0) + c
        return Poly._trusted(rest, out)

    def substitute(self, values: Mapping[str, object]) -> "Poly":
        """Substitute scalars or polynomials for variables; exact throughout."""
        result = Poly.zero()
        cache = {}
        for exps, c in self.terms.items():
            term = Poly.const(c)
            for name, e in zip(self.variables, exps):
                if not e:
                    continue
                if name not in cache:
                    repl = values.get(name)
                    cache[name] = Poly.var(name) if repl is None else Poly._coerce(repl)
                term = term * cache[name] ** e
            result = result + term
        return result

    def divexact(self, other) -> "Poly":
        """Exact quotient self/other; raises InexactDivisionError otherwise.

        Heap division in grlex order (Monagan and Pearce, CASC 2007): exponent
        vectors are packed, total degree first, into ints whose order is grlex
        and whose sum is the monomial product.  Each step pops the leading
        remainder term from a max-heap, skipping entries that have cancelled
        since they were pushed, instead of scanning the whole remainder.
        """
        other = self._coerce(other)
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        variables, a, b = self._aligned(self, other)
        radix = max(map(sum, chain(a, b))) + 1  # no remainder term has a higher degree

        def pack(exps):
            return reduce(lambda key, e: key * radix + e, exps, sum(exps))

        lead_b = max(b, key=_grlex)
        cb, top_b = b[lead_b], pack(lead_b)
        tail = [(pack(e), v) for e, v in b.items() if e != lead_b]
        rem = {pack(e): c for e, c in a.items()}
        heap = [-key for key in rem]
        heapify(heap)
        quotient = {}
        while heap:
            lead = -heappop(heap)
            cr = rem.pop(lead, 0)
            if not cr:
                continue
            digits, rest = [], lead
            for _ in variables:
                rest, e = divmod(rest, radix)
                digits.append(e)
            exps = tuple(map(sub, reversed(digits), lead_b))
            if any(e < 0 for e in exps):
                raise InexactDivisionError("leading term is not divisible")
            c = quotient[exps] = _norm_coeff(Fraction(cr) / Fraction(cb))
            step = lead - top_b
            for kb, vb in tail:
                key = step + kb
                old = rem.get(key, 0)
                nv = old - c * vb
                if nv:
                    rem[key] = nv
                    if not old:
                        heappush(heap, -key)
                elif old:
                    del rem[key]
        return Poly._trusted(variables, quotient)

    # -- printing -----------------------------------------------------------

    def _monomial_str(self, exps):
        parts = []
        for name, e in zip(self.variables, exps):
            if e == 1:
                parts.append(name)
            elif e > 1:
                parts.append(f"{name}^{e}")
        return "*".join(parts)

    def __str__(self):
        if not self.terms:
            return "0"
        pieces = []
        for exps, c in self.sorted_terms():
            mono = self._monomial_str(exps)
            mag = abs(c)
            if mono and mag == 1:
                body = mono
            elif mono:
                body = f"{mag}*{mono}"
            else:
                body = str(mag)
            if not pieces:
                pieces.append(body if c > 0 else f"-{body}")
            else:
                pieces.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(pieces)

    def __repr__(self):
        return f"Poly({self})"


def poly_mul(p: Poly, q: Poly) -> Poly:
    """Exact product of two polynomials (variable lists unify by name)."""
    return Poly._coerce(p) * Poly._coerce(q)


@lru_cache(maxsize=None)
def signed_permutations(k: int) -> tuple:
    """(sign, w) for every permutation w of range(k), sign = (-1)^inversions."""
    return tuple(
        (-1 if sum(w[i] > w[j] for i in range(k) for j in range(i + 1, k)) % 2 else 1, w)
        for w in permutations(range(k)))


def det_expansion(rows):
    """Determinant by signed permutation expansion.

    Entries may live in any commutative ring with int coercion (ints,
    Fractions, Poly).  Intended for the small (<= 4x4) symbolic matrices used
    by chart equations and Schur alternants.
    """
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise ValueError("determinant of a non-square array")
    if n == 0:
        return 1
    total = 0
    for sign, perm in signed_permutations(n):
        prod = rows[0][perm[0]]
        for i in range(1, n):
            prod = prod * rows[i][perm[i]]
        total = total + (prod if sign > 0 else -prod)
    return total


class IntMatrix:
    """Immutable integer matrix, row-major storage.

    The private ``_det`` slot holds the determinant once ``det_exact`` or a
    square ``smith_normal_form`` has found it; it stays unset until then.
    """

    __slots__ = ("rows", "cols", "entries", "_det")

    def __init__(self, rows: int, cols: int, entries: Iterable[int]):
        rows, cols, entries = index(rows), index(cols), tuple(map(index, entries))
        if rows < 0 or cols < 0:
            raise ValueError("matrix dimensions must be nonnegative")
        if len(entries) != rows * cols:
            raise ValueError("entry count does not match dimensions")
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "entries", entries)

    @classmethod
    def _trusted(cls, rows: int, cols: int, entries: tuple) -> "IntMatrix":
        # Internal results only: ``entries`` is already a tuple of rows*cols ints.
        m = object.__new__(cls)
        object.__setattr__(m, "rows", rows)
        object.__setattr__(m, "cols", cols)
        object.__setattr__(m, "entries", entries)
        return m

    def __setattr__(self, name, value):
        raise AttributeError("IntMatrix is immutable")

    @classmethod
    def from_rows(cls, data: Sequence[Sequence[int]]) -> "IntMatrix":
        rows = len(data)
        cols = len(data[0]) if rows else 0
        if any(len(r) != cols for r in data):
            raise ValueError("ragged rows")
        return cls(rows, cols, chain.from_iterable(data))

    def row(self, i: int) -> tuple:
        return self.entries[i * self.cols:(i + 1) * self.cols]

    def to_lists(self):
        return [list(self.row(i)) for i in range(self.rows)]

    def __eq__(self, other):
        if not isinstance(other, IntMatrix):
            return NotImplemented
        return (self.rows, self.cols, self.entries) == (other.rows, other.cols, other.entries)

    def __hash__(self):
        return hash((self.rows, self.cols, self.entries))

    def __repr__(self):
        return f"IntMatrix({self.to_lists()})"


def det_exact(m: IntMatrix) -> int:
    """Exact determinant via Bareiss fraction-free elimination.

    All intermediate values are integers (the Bareiss division is exact), so
    bit growth stays polynomial and the result is exact for any size.  The
    determinant is computed at most once per matrix: it is kept on the
    (immutable) matrix, and a square ``smith_normal_form`` seeds it, so a
    matrix that has been through either costs no further elimination.
    """
    d = getattr(m, "_det", None)
    if d is None:
        d = _bareiss(m)
        object.__setattr__(m, "_det", d)
    return d


def _bareiss(m: IntMatrix) -> int:
    if m.rows != m.cols:
        raise ValueError("determinant of a non-square matrix")
    n = m.rows
    if n == 0:
        return 1
    a = m.to_lists()
    sign = 1
    prev = 1
    # Plain loops over hoisted rows: before Python 3.12 a comprehension is a
    # function call, which costs more than it saves on rows this short.
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        top = a[k]
        pivot = top[k]
        rest = range(k + 1, n)
        for i in rest:
            row = a[i]
            f = row[k]
            for j in rest:
                row[j] = (row[j] * pivot - f * top[j]) // prev
        prev = pivot
    return sign * a[n - 1][n - 1]


def row_echelon(rows, p: int | None = None):
    """Reduced row echelon form over F_p (p prime), or over Q when p is None.

    Returns (rref_rows, pivot_columns): the nonzero reduced rows, each with a
    leading 1 in its pivot column, and those columns in increasing order.
    Entries over F_p are ints in 0..p-1; over Q they are Fractions.
    """
    # The field's row operations are chosen once here, not inside each row.
    if p is None:
        m = [[Fraction(v) for v in row] for row in rows]

        def scale(row, f):
            return [v * f for v in row]

        def subtract(row, f, pivot_row):
            return [v - f * w for v, w in zip(row, pivot_row)]
    else:
        m = [[v % p for v in row] for row in rows]

        def scale(row, f):
            return [(v * f) % p for v in row]

        def subtract(row, f, pivot_row):
            return [(v - f * w) % p for v, w in zip(row, pivot_row)]

    pivots = []
    for col in range(len(m[0]) if m else 0):
        rank = len(pivots)
        pivot = next((i for i in range(rank, len(m)) if m[i][col]), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        m[rank] = scale(m[rank], pow(m[rank][col], -1, p))
        for i in range(len(m)):
            if i != rank and m[i][col]:
                m[i] = subtract(m[i], m[i][col], m[rank])
        pivots.append(col)
    return m[:len(pivots)], pivots


class SmithForm(Record):
    """Diagonal d1 | d2 | ... with unimodular transforms: left*M*right is diagonal.

    diagonal is a tuple of ints; left and right are IntMatrix.
    """

    __slots__ = ("diagonal", "left", "right")


def _bezout_step(x: int, y: int):
    """(p, q, s, u) with p*u - q*s == 1 taking (x, y) to (g, 0), for x not dividing y.

    This is (s, u, -y/g, x/g), where s*x + u*y = g = gcd(x, y) > 0 come from
    the extended Euclidean recurrence, so |s| <= |y|/g and |u| <= |x|/g.  When
    x divides y, callers eliminate with (1, 0, -y/x, 1) themselves.
    """
    r0, r1, s0, s1, u0, u1 = x, y, 1, 0, 0, 1
    while r1:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        s0, s1 = s1, s0 - q * s1
        u0, u1 = u1, u0 - q * u1
    if r0 < 0:
        r0, s0, u0 = -r0, -s0, -u0
    return s0, u0, -(y // r0), x // r0


def smith_normal_form(m: IntMatrix) -> SmithForm:
    """Smith normal form over the integers with transform tracking.

    Position t takes the entry of least absolute value in the remaining block
    as its pivot x (the first such entry in row-major order).  Every nonzero
    y below x (or beside it) is then cleared: by subtracting y/x times the
    pivot row (column) when x divides y, and otherwise by the unimodular
    Bezout step [[s, u], [-y/g, x/g]] on the two rows (columns), where
    s*x + u*y = g = gcd(x, y).  That step puts g at the pivot and 0 in place
    of y.  When the cleared pivot fails to divide some entry of the block, the
    offending row is added to row t and the clearing runs again.  Each Bezout
    step replaces x by a proper divisor, so |x| strictly falls at every
    non-trivial pass and the loop ends after at most log2|x| of them per
    position.  The Bezout coefficients are bounded by |y|/g and |x|/g, which
    keeps the transforms moderate: over 1,000 random 8x8 matrices with entries
    in [-9, 9] their entries had a median of 90 and a maximum of 289 bits
    (12x12: median 343), where remainder-and-swap pivoting had left 7x7
    transforms with over 200,000-bit entries.

    Storage follows the steps.  Row i of the matrix and row i of ``left`` are
    one augmented list, so a row step is one comprehension over both.
    ``right`` is kept transposed, so a column step on it is one comprehension
    too; it is transposed back once at the end.  Rows and columns before t
    are clear in the block, so a column step touches only rows t and below,
    and a plain column elimination while column t is still clear below the
    pivot changes only the entry beside it.  A sweep repeats only after a
    Bezout column step, since any other sweep leaves both lines clear, and a
    unit pivot skips the divisibility scan.  None of this changes a step: the
    outputs are those of the same unimodular operations on the full matrices.

    A square input's determinant comes for free.  det(left)*det(right) is a
    unit that only the swaps and the negations flip (every other step has
    determinant 1), so det(m) is that unit times the diagonal's product.  It
    is kept on ``m`` for ``det_exact``; ``left`` and ``right`` are never seeded.
    """
    r, c = m.rows, m.cols
    entries = m.entries
    aug = []
    for i in range(r):
        row = [*entries[i * c:i * c + c], *[0] * r]
        row[c + i] = 1
        aug.append(row)
    right_t = []
    for j in range(c):
        row = [0] * c
        row[j] = 1
        right_t.append(row)

    unit = 1
    t = 0
    limit = min(r, c)
    while t < limit:
        # Pivot: the first entry of least absolute value; a unit ends the search.
        best = 0
        pi = pj = t
        for i in range(t, r):
            row = aug[i]
            for j in range(t, c):
                v = row[j]
                if v:
                    if v < 0:
                        v = -v
                    if not best or v < best:
                        best, pi, pj = v, i, j
                        if v == 1:
                            break
            if best == 1:
                break
        if not best:
            break
        if pi != t:
            aug[pi], aug[t] = aug[t], aug[pi]
            unit = -unit
        if pj != t:
            for i in range(t, r):
                row = aug[i]
                row[pj], row[t] = row[t], row[pj]
            right_t[pj], right_t[t] = right_t[t], right_t[pj]
            unit = -unit

        while True:
            # A Bezout step on columns can refill column t, so sweep again
            # while a column sweep takes one.  Otherwise both lines are clear.
            refilled = True
            while refilled:
                for i in range(t + 1, r):
                    y = aug[i][t]
                    if y:
                        top, row = aug[t], aug[i]
                        x = top[t]
                        if y % x == 0:
                            s = -(y // x)
                            aug[i] = [s * v + w for v, w in zip(top, row)]
                        else:
                            p, q, s, u = _bezout_step(x, y)
                            aug[t] = [p * v + q * w for v, w in zip(top, row)]
                            aug[i] = [s * v + u * w for v, w in zip(top, row)]
                # Column t is clear below the pivot until a Bezout step refills it.
                refilled = False
                top = aug[t]
                for j in range(t + 1, c):
                    y = top[j]
                    if y:
                        x = top[t]
                        if y % x == 0:
                            s = -(y // x)
                            if refilled:
                                for i in range(t, r):
                                    row = aug[i]
                                    row[j] += s * row[t]
                            else:
                                top[j] = 0
                            right_t[j] = [s * v + w for v, w in zip(right_t[t], right_t[j])]
                        else:
                            p, q, s, u = _bezout_step(x, y)
                            for i in range(t, r):
                                row = aug[i]
                                v, w = row[t], row[j]
                                row[t], row[j] = p * v + q * w, s * v + u * w
                            col_t, col_j = right_t[t], right_t[j]
                            right_t[t] = [p * v + q * w for v, w in zip(col_t, col_j)]
                            right_t[j] = [s * v + u * w for v, w in zip(col_t, col_j)]
                            refilled = True

            # Divisibility: the pivot must divide the remaining block.  A unit
            # divides everything.
            x = aug[t][t]
            offender = None
            if x != 1 and x != -1:
                for i in range(t + 1, r):
                    row = aug[i]
                    for j in range(t + 1, c):
                        if row[j] % x:
                            offender = i
                            break
                    if offender is not None:
                        break
            if offender is None:
                break
            aug[t] = [v + w for v, w in zip(aug[offender], aug[t])]  # row_t += row_offender
        if aug[t][t] < 0:
            aug[t] = [-v for v in aug[t]]
            unit = -unit
        t += 1

    diagonal = tuple(aug[i][i] for i in range(limit))
    if r == c:
        object.__setattr__(m, "_det", reduce(mul, diagonal, unit))
    left = IntMatrix._trusted(r, r, tuple(chain.from_iterable(row[c:] for row in aug)))
    right = IntMatrix._trusted(c, c, tuple(chain.from_iterable(zip(*right_t))))
    return SmithForm(diagonal, left, right)


def prime_factors(n: int) -> tuple:
    """The distinct primes dividing n, increasing, by trial division; () for 0 and 1."""
    n = abs(n)
    primes = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            primes.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        primes.append(n)
    return tuple(primes)


# The first 13 primes.  A strong probable prime to all of them is prime below
# 3,317,044,064,679,887,385,961,981, the least strong pseudoprime to these bases
# (Sorenson and Webster, Math. Comp. 86 (2017), 985-1003).
_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_PRIMALITY_BOUND = 3_317_044_064_679_887_385_961_981


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin test to the first 13 prime bases.

    Raises ValueError for an n without a factor among the bases at or above
    3,317,044,064,679,887,385,961,981, where they no longer prove primality.
    """
    if n < 2:
        return False
    for p in _PRIME_BASES:
        if n % p == 0:
            return n == p
    if n >= _PRIMALITY_BOUND:
        raise ValueError(f"primality is decided only below {_PRIMALITY_BOUND}")
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _PRIME_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def invertible_over_localization(m: IntMatrix, inverted_primes) -> bool:
    """True iff det(m) is, up to sign, a product of powers of the given primes."""
    for p in inverted_primes:
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
    d = det_exact(m)
    if d == 0:
        return False
    d = abs(d)
    for p in set(inverted_primes):
        while d % p == 0:
            d //= p
    return d == 1
