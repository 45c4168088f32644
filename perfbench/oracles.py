"""Correctness checks computed apart from chowkit.

Each ``check_<workload>(key, value)`` takes one operation's input key and its
plain outcome (see ``workloads.outcome``) and returns a list of problems,
empty when the outcome is right.  The checks recompute what they can by
other means (sympy, tableau counting, itertools, Fraction arithmetic) and
test the properties the answers must have.  They run after the timed loop
and after peak memory is read, because importing sympy alone costs about
0.4 s and 48 MB.
"""

from __future__ import annotations

import json
from fractions import Fraction
from itertools import combinations
from math import comb, isqrt

# -- shared exact linear algebra ---------------------------------------------------


def det_fraction(rows) -> Fraction:
    """Determinant by Gaussian elimination over Q."""
    m = [[Fraction(v) for v in row] for row in rows]
    n = len(m)
    det = Fraction(1)
    for c in range(n):
        pivot = next((r for r in range(c, n) if m[r][c]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != c:
            m[c], m[pivot] = m[pivot], m[c]
            det = -det
        det *= m[c][c]
        for r in range(c + 1, n):
            f = m[r][c] / m[c][c]
            if f:
                m[r] = [a - f * b for a, b in zip(m[r], m[c])]
    return det


def matmul(a, b):
    return [[sum(a[i][k] * b[k][j] for k in range(len(b))) for j in range(len(b[0]))]
            for i in range(len(a))]


def transpose(a):
    return [list(col) for col in zip(*a)]


# -- certify -----------------------------------------------------------------------


def gaussian_binomial(n: int, k: int, q: int) -> int:
    """Number of k-dimensional subspaces of F_q^n, by counting ordered bases."""
    num = den = 1
    for i in range(k):
        num *= q ** n - q ** i
        den *= q ** k - q ** i
    return num // den


def check_certify(key, value) -> list:
    code, stdout = value
    problems = []
    if code != 0:
        problems.append(f"verify all exited {code}")
    try:
        doc = json.loads(stdout)
    except ValueError:
        return problems + ["verify all printed no JSON document"]
    payload = doc.get("payload", {})
    checks = payload.get("checks", [])
    passed = sum(1 for c in checks if c.get("status") == "pass")
    if doc.get("status") != "pass" or passed != 12 or len(checks) != 12 \
            or payload.get("failed") != []:
        problems.append(f"battery: {passed}/{len(checks)} passed")
    detail = {c.get("name"): c.get("detail", {}) for c in checks}
    gram = detail.get("gram_certificate", {})
    matrix = gram.get("matrix")
    if not matrix or det_fraction(matrix) != -2 or gram.get("det") != -2:
        problems.append("Gram determinant is not -2")
    counts = detail.get("ideal_enumeration", {}).get("counts", {})
    want = {f"n={n},k={k}": gaussian_binomial(n, k, 2) for n, k in ((2, 1), (3, 1), (3, 2))}
    if counts != want:
        problems.append(f"ideal counts {counts} != Gaussian binomials {want}")
    checked = detail.get("d2_oracle", {}).get("matrices_checked")
    if checked != sum(n * (n + 1) // 2 for n in (2, 3, 5)):
        problems.append(f"d2 matrices_checked = {checked}")
    charts = detail.get("chart_sweep", {}).get("charts", {})
    if len(charts) != comb(6, 3):
        problems.append(f"{len(charts)} charts instead of C(6,3)")
    return problems


# -- symbolic ----------------------------------------------------------------------


def lr_coefficient(lam, mu, nu) -> int:
    """Littlewood-Richardson coefficient c^nu_{lam, mu} by counting LR tableaux.

    Fills the skew shape nu/lam row by row from the top, each row from right
    to left (the reverse reading order), with rows weakly increasing, columns
    strictly increasing, content mu and a lattice reading word.
    """
    lam = list(lam) + [0] * (len(nu) - len(lam))
    if any(l > n for l, n in zip(lam, nu)) or len(lam) > len(nu):
        return 0
    if sum(nu) != sum(lam) + sum(mu):
        return 0
    cells = [(r, c) for r in range(len(nu)) for c in range(nu[r] - 1, lam[r] - 1, -1)]
    filling = {}
    used = [0] * (len(mu) + 1)

    def place(i):
        if i == len(cells):
            return 1
        r, c = cells[i]
        low = filling.get((r - 1, c), 0) + 1 if r > 0 and c >= lam[r - 1] else 1
        high = filling.get((r, c + 1), len(mu)) if c + 1 < nu[r] else len(mu)
        total = 0
        for v in range(low, high + 1):
            if used[v] == mu[v - 1] or (v > 1 and used[v] == used[v - 1]):
                continue
            used[v] += 1
            filling[(r, c)] = v
            total += place(i + 1)
            used[v] -= 1
            del filling[(r, c)]
        return total

    return place(0)


def box_partitions(k: int, cols: int, size: int):
    def rec(prefix, maxpart, left):
        if left == 0:
            yield tuple(prefix)
            return
        if len(prefix) == k:
            return
        for part in range(min(maxpart, left), 0, -1):
            yield from rec(prefix + [part], part, left - part)

    return list(rec([], cols, size))


def multi_indices(n: int, weight: int):
    """Subsets of {1..n} with the given sum, by length then lexicographic."""
    return [c for r in range(n + 1) for c in combinations(range(1, n + 1), r)
            if sum(c) == weight]


def bump_entry(n: int, row, col) -> int:
    """i_t mod n when col is row with its t-th index raised by one, else 0."""
    if len(row) != len(col):
        return 0
    diffs = [(a, b) for a, b in zip(row, col) if a != b]
    if len(diffs) == 1 and diffs[0][1] == diffs[0][0] + 1:
        return diffs[0][0] % n
    return 0


# The paper's weight-1..3 tables, the same for every odd prime and either unit.
WEIGHT_TABLES = {
    1: {1: "Z"},
    2: {2: "F*", 3: "nZ"},
    3: {1: "H^{0,2}(F)", 2: "H^{1,2}(F)", 3: "H^{2,2}(F)", 4: "Z + (F*)^n", 5: "nZ"},
}


def check_symbolic(key, value, commuted=None) -> list:
    kind = key[0]
    if kind == "schur":
        _, k, a, b = key
        size = sum(a) + sum(b)
        want = {}
        for nu in box_partitions(k, k, size):
            c = lr_coefficient(a, b, nu)
            if c:
                want[nu] = c
        problems = []
        if value["terms"] != want:
            problems.append(f"schur {key}: {value['terms']} != LR {want}")
        if commuted is not None and commuted != value:
            problems.append(f"schur {key}: product does not commute")
        return problems
    if kind == "d2":
        _, n, q = key
        rows, cols = multi_indices(n, q), multi_indices(n, q + 1)
        entries = tuple(tuple(bump_entry(n, r, c) for c in cols) for r in rows)
        if list(value["rows"]) != rows or list(value["cols"]) != cols:
            return [f"d2 {key}: index order differs from itertools"]
        if value["entries"] != entries:
            return [f"d2 {key}: entries differ from the closed form"]
        return []
    _, n, j, unit = key
    if value != WEIGHT_TABLES[j]:
        return [f"weight table {key}: {value} != {WEIGHT_TABLES[j]}"]
    return []


# -- lattice -----------------------------------------------------------------------


def check_lattice(key, value) -> list:
    from sympy import Matrix, ZZ, factorint
    from sympy.matrices.normalforms import smith_normal_form as sympy_snf

    rows, primes = key[-2], key[-1]
    n = len(rows)
    diag, left, right = value["diagonal"], value["left"], value["right"]
    problems = []
    d = [[diag[i] if i == j else 0 for j in range(n)] for i in range(n)]
    if matmul(matmul(left, [list(r) for r in rows]), right) != d:
        problems.append("L*M*R != D")
    if abs(det_fraction(left)) != 1 or abs(det_fraction(right)) != 1:
        problems.append("transform not unimodular")
    if any(x < 0 for x in diag) or any(
            (diag[i + 1] % diag[i] if diag[i] else diag[i + 1]) for i in range(n - 1)):
        problems.append(f"diagonal {diag} is not a divisor chain")
    m = Matrix(rows)
    theirs = sympy_snf(m, domain=ZZ)
    if sorted(abs(theirs[i, i]) for i in range(n)) != sorted(diag):
        problems.append(f"diagonal {diag} differs from sympy")
    det = int(m.det())
    if value["det"] != det:
        problems.append(f"det {value['det']} != sympy {det}")
    local = det != 0 and all(p in primes for p in factorint(abs(det)))
    if value["local"] != local:
        problems.append(f"localization verdict {value['local']} != {local}")
    return problems


def transform_bits(value) -> int:
    return max(abs(e).bit_length() for row in value["left"] + value["right"] for e in row)


# -- forms -------------------------------------------------------------------------


def _is_rational_square(x: Fraction) -> bool:
    if x <= 0:
        return False
    a, b = x.numerator, x.denominator
    return isqrt(a) ** 2 == a and isqrt(b) ** 2 == b


def _conjugate(diag, columns):
    """P^T diag(diag) P for P with the given columns."""
    return [[sum(Fraction(diag[r]) * u[r] * v[r] for r in range(len(diag)))
             for v in columns] for u in columns]


def check_forms(key, value) -> list:
    if key[0] == "similar":
        _, f, g = key
        if value is None:
            return [f"no similarity certificate for the similar pair {f}, {g}"]
        c, cols = value["multiplier"], [list(col) for col in value["transform"]]
        want = [[Fraction(g[i]) if i == j else Fraction(0) for j in range(len(g))]
                for i in range(len(g))]
        problems = []
        if c == 0 or _conjugate([c * x for x in f], cols) != want:
            problems.append(f"similarity certificate fails for {f}, {g}")
        if det_fraction(transpose(cols)) == 0:
            problems.append("similarity transform is singular")
        return problems
    _, kind, form = key
    planes, residual = value["planes"], value["residual"]
    cols = [list(col) for col in value["transform"]]
    size = len(form)
    target = [[Fraction(0)] * size for _ in range(size)]
    for i in range(planes):
        target[2 * i][2 * i + 1] = target[2 * i + 1][2 * i] = Fraction(1)
    for i, d in enumerate(residual):
        target[2 * planes + i][2 * planes + i] = Fraction(d)
    problems = []
    if len(cols) != size or _conjugate(form, cols) != target:
        problems.append(f"Witt certificate fails for {form}")
    elif det_fraction(transpose(cols)) == 0:
        problems.append(f"Witt transform for {form} is singular")
    pos = sum(1 for c in form if c > 0)
    neg = size - pos
    rpos = sum(1 for c in residual if c > 0)
    if planes > min(pos, neg):
        problems.append(f"{planes} planes exceed min(p, q) for {form}")
    if (planes + rpos, planes + len(residual) - rpos) != (pos, neg):
        problems.append(f"signature not preserved for {form}")
    prod_form = Fraction(1)
    for c in form:
        prod_form *= c
    prod_res = Fraction((-1) ** planes)
    for c in residual:
        prod_res *= Fraction(c)
    if not _is_rational_square(prod_form / prod_res):
        problems.append(f"discriminant square class not preserved for {form}")
    if (pos == 0 or neg == 0) and planes:
        problems.append(f"definite form {form} split {planes} planes")
    if pos and neg and size >= 5 and planes == 0:
        problems.append(f"indefinite form {form} of dimension >= 5 split no plane")
    if kind == "anisotropic" and planes:
        problems.append(f"anisotropic form {form} split {planes} planes")
    return problems
