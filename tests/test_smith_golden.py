"""Golden Smith forms: the exact diagonal and transforms, pinned by sha256.

Any change to how ``smith_normal_form`` eliminates must reproduce the same
``SmithForm(diagonal, left, right)``, transforms included.  The matrices are
drawn from a fixed ``random.Random`` string; each group is hashed over its
canonical JSON, so a failing case names the size that changed.
"""

import hashlib
import json
import random

import pytest

from chowkit.exact import IntMatrix, smith_normal_form
from test_exact_core import OVERRUN_7X7, OVERRUN_8X8, diagonal_matrix


def _random_rows(rng, r, c, kind):
    if kind == "dense":
        return [[rng.randint(-9, 9) for _ in range(c)] for _ in range(r)]
    if kind == "small":
        return [[rng.randint(-2, 2) for _ in range(c)] for _ in range(r)]
    if kind == "sparse":
        return [[rng.randint(-9, 9) if rng.random() < 0.3 else 0 for _ in range(c)]
                for _ in range(r)]
    # Rank-deficient: a product of r x k and k x c factors with k < min(r, c).
    k = rng.randint(0, max(min(r, c) - 1, 0))
    f = [[rng.randint(-3, 3) for _ in range(k)] for _ in range(r)]
    g = [[rng.randint(-3, 3) for _ in range(c)] for _ in range(k)]
    return [[sum(f[i][t] * g[t][j] for t in range(k)) for j in range(c)] for i in range(r)]


def _matrix(r, c, rows):
    return IntMatrix(r, c, [v for row in rows for v in row])


def golden_cases():
    """{group: [(r, c, rows)]}: every shape up to 8x8 grouped by max(r, c),
    the two former overruns, and a few 10x10 and 12x12 matrices."""
    rng = random.Random("chowkit-smith-golden-v1")
    groups = {}
    for r in range(9):
        for c in range(9):
            cases = groups.setdefault(f"max{max(r, c)}", [])
            for kind in ("dense", "dense", "small", "sparse", "deficient", "deficient"):
                cases.append((r, c, _random_rows(rng, r, c, kind)))
    groups["overrun7x7"] = [(7, 7, OVERRUN_7X7)]
    groups["overrun8x8"] = [(8, 8, OVERRUN_8X8)]
    for n in (10, 12):
        groups[f"{n}x{n}"] = [(n, n, _random_rows(rng, n, n, kind))
                              for kind in ("dense", "dense", "small", "deficient")]
    return groups


def _canonical(m: IntMatrix):
    return [m.rows, m.cols, list(m.entries)]


def digest(cases) -> str:
    out = []
    for r, c, rows in cases:
        smith = smith_normal_form(_matrix(r, c, rows))
        out.append({"m": rows, "diagonal": list(smith.diagonal),
                    "left": _canonical(smith.left), "right": _canonical(smith.right)})
    text = json.dumps(out, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


GOLDEN_SHA256 = {
    "max0": "5564104f88d75e70d4eed7e5979106342592816ab931dfd8610e29dc5381cf14",
    "max1": "fcf398dd0fbffa3a3bc5a4196910dbbcf6890025dadbd4038a4ca5ff24e37837",
    "max2": "fe6f6d84c9fac519793537561b019951c5fbd46b207b83d987082b90e860846a",
    "max3": "1a609144e68cb099cb939c53d6425aafcd891eea90846dce4f3e7b26514ca8c7",
    "max4": "ba7114360c1c2328f7426c58ad1e162711e8a90c7ec85b2f8b7e8a865ee3f82e",
    "max5": "3f6ca9998234ac159773002bd1e9d1e148e8b0b420095780d496f680fce80912",
    "max6": "b4047fb79cdcd2bc6bab257b478fc2748572c9b716bd5c8372d769481efe1107",
    "max7": "0cbc273e6156ee35e4bf710f90b83162a80d424434e4fdded6a3ad3a4af72ce6",
    "max8": "851449ff332f159490ffe7802d92ca063ddcb525abe781ac6eb41b9267585909",
    "overrun7x7": "491db6e77557bf0343c748bb1ba4ad7c68887a202de2c434ce5186a2dcc1cfa1",
    "overrun8x8": "8e6ac6147aad1504e91b73b82d6342f46f7efc5e4747c4079dfbcd6043de8230",
    "10x10": "406445d08fd4335e48b9d48dd6248563ff2747d9cdd312a3b9c1ddf3d000b1f8",
    "12x12": "cda1a971410bb16b4b8c7b624aa8b77dd6b8ce79e6e8d8029410841901df804b",
}

GROUPS = golden_cases()


@pytest.mark.parametrize("group", sorted(GROUPS))
def test_smith_outputs_match_golden(group):
    cases = GROUPS[group]
    for r, c, rows in cases:
        m = _matrix(r, c, rows)
        smith = smith_normal_form(m)
        assert smith.left * m * smith.right == diagonal_matrix(smith, r, c)
    assert digest(cases) == GOLDEN_SHA256[group]
