"""Deep tier: smith_normal_form against sympy from 6x6 to 16x16.

Tier-1's Smith properties stop at 4x4, and its regressions pin two fixed
matrices.  This file draws seeded matrices with entries in [-9, 9]: square
ones of every size from 6 to 16, square ones whose last rows lie in 3Z (so
that the diagonal ends in multiples of 3), rectangular ones, and rank-deficient
ones.  For each it checks the diagonal against sympy's Smith form, the
certificate left * M * right = D with a product local to this file, the
unimodularity of both transforms through sympy's determinant, and the
divisibility chain.  Run it with ``PYTHONPATH=src python -m pytest -q deeptests``.
"""

import random

import pytest
from sympy import Matrix, ZZ
from sympy.matrices.normalforms import smith_normal_form as sympy_smith

from chowkit.exact import IntMatrix, smith_normal_form


def _entries(rng, count, step=1):
    return [step * rng.randint(-9 // step, 9 // step) for _ in range(count)]


def _square(n, seed):
    rng = random.Random(f"chowkit-deep-smith-square-{n}-{seed}")
    return [_entries(rng, n) for _ in range(n)]


def _threes(n, seed):
    """n x n with its last n // 3 rows in 3Z."""
    rng = random.Random(f"chowkit-deep-smith-threes-{n}-{seed}")
    return [_entries(rng, n, 3 if i >= n - n // 3 else 1) for i in range(n)]


def _rectangular(rows, cols, seed):
    rng = random.Random(f"chowkit-deep-smith-rect-{rows}-{cols}-{seed}")
    return [_entries(rng, cols) for _ in range(rows)]


def _rank_deficient(rows, cols, rank, seed):
    """rows x cols of rank at most `rank`: each further row is the sum or the
    difference of two base rows with entries in [-4, 4], or zero."""
    rng = random.Random(f"chowkit-deep-smith-rank-{rows}-{cols}-{rank}-{seed}")
    base = [[rng.randint(-4, 4) for _ in range(cols)] for _ in range(rank)]
    out = [list(row) for row in base]
    while len(out) < rows:
        a, b, sign = rng.choice(base), rng.choice(base), rng.choice((-1, 0, 1))
        out.append([x + sign * y for x, y in zip(a, b)])
    rng.shuffle(out)
    return out


CASES = (
    [pytest.param(_square(n, s), id=f"square-{n}-{s}") for n in range(6, 17) for s in range(3)]
    + [pytest.param(_threes(n, s), id=f"threes-{n}-{s}") for n in (6, 9, 12, 16) for s in range(2)]
    + [pytest.param(_rectangular(r, c, s), id=f"rect-{r}x{c}-{s}")
       for r, c in ((6, 10), (10, 6), (8, 14), (14, 8), (12, 16), (16, 12)) for s in range(2)]
    + [pytest.param(_rank_deficient(r, c, k, s), id=f"rank{k}-{r}x{c}-{s}")
       for r, c, k in ((8, 8, 5), (12, 12, 7), (16, 16, 10), (10, 14, 6), (14, 9, 4))
       for s in range(2)]
)


def _product(a, b):
    """a * b for matrices given as lists of rows."""
    columns = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in columns] for row in a]


@pytest.mark.parametrize("rows", CASES)
def test_smith_form_matches_sympy(rows):
    smith = smith_normal_form(IntMatrix.from_rows(rows))
    size = min(len(rows), len(rows[0]))
    expected = sympy_smith(Matrix(rows), domain=ZZ)
    assert smith.diagonal == tuple(abs(expected[i, i]) for i in range(size))

    left, right = smith.left.to_lists(), smith.right.to_lists()
    diagonal = [[smith.diagonal[i] if i == j else 0 for j in range(len(rows[0]))]
                for i in range(len(rows))]
    assert _product(_product(left, rows), right) == diagonal
    assert abs(Matrix(left).det(method="bareiss")) == 1
    assert abs(Matrix(right).det(method="bareiss")) == 1

    for d, e in zip(smith.diagonal, smith.diagonal[1:]):
        assert e == 0 if d == 0 else e % d == 0
