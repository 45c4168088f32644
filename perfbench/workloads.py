"""Seeded inputs and operations for the four workloads.

Every workload is a sequence of rounds.  A round is a list of operations that
is the same for every round of a run (lattice, symbolic) or drawn afresh from
the same laws (forms), so a run is a whole number of rounds of one fixed
composition.  Operations call chowkit through its module objects, never
through names bound here, so a traced run sees every call.

Each operation is an ``Op``: a key that holds its input, and a callable.
``outcome(workload, key, result)`` turns a result into plain data for the
oracles.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable


@dataclass(frozen=True)
class Op:
    key: tuple
    run: Callable[[], object]


# -- lattice -------------------------------------------------------------------

LATTICE_SIZES = {4: 400, 5: 400}       # seeded matrices per round, by size
LATTICE_ENTRY = 9                      # entries uniform in [-9, 9]
LATTICE_PRIMES = (2, 3, 5, 7)

# Two matrices on which smith_normal_form does not finish: both were still
# running after 20 s, 80 times the per-operation deadline.  They do not depend
# on the seed, so every round of every run fails on exactly these two.
FAULT_MATRICES = {
    "fault-7x7": ((3, -1, 4, -8, -7, 8, -2), (8, -7, 4, 5, 7, -9, 0),
                  (-2, 9, -1, 7, 7, -5, -9), (2, 2, -5, 6, 6, -6, 1),
                  (5, -4, 2, -7, 8, 4, -3), (-7, -3, 4, 7, 1, -7, 2),
                  (-6, 8, 0, -9, 4, -9, 2)),
    "fault-8x8": ((4, 4, 9, -9, -6, 4, -2, 2), (-3, 8, -1, -4, 6, -4, -6, 9),
                  (-8, -7, -4, 1, 7, -6, 5, -1), (-2, -5, 5, 6, 8, 0, -2, -3),
                  (-6, 9, -9, -8, 6, 8, -6, -7), (-4, -1, 5, 3, -1, -7, 3, -9),
                  (1, -4, -3, 1, 8, -6, 0, -9), (9, 5, -2, 4, 0, 9, 9, 3)),
}


def lattice_inputs(seed: int):
    """[(key, rows, inverted_primes)] for one round, in round order."""
    rng = random.Random(f"lattice-{seed}")
    pool = []
    for size, count in LATTICE_SIZES.items():
        for i in range(count):
            rows = tuple(tuple(rng.randint(-LATTICE_ENTRY, LATTICE_ENTRY) for _ in range(size))
                         for _ in range(size))
            primes = tuple(p for p in LATTICE_PRIMES if rng.random() < 0.5)
            pool.append(((f"{size}x{size}", i), rows, primes))
    rng.shuffle(pool)
    half = len(pool) // 2
    faults = [((name, 0), rows, (2, 3)) for name, rows in FAULT_MATRICES.items()]
    return pool[:half] + faults[:1] + pool[half:] + faults[1:]


def _lattice_op(chowkit, rows, primes):
    exact = chowkit.exact
    m = exact.IntMatrix.from_rows(rows)
    smith = exact.smith_normal_form(m)
    det = exact.det_exact(m)
    local = exact.invertible_over_localization(m, primes)
    return smith, det, local


def lattice_rounds(chowkit, seed: int):
    inputs = lattice_inputs(seed)
    ops = [Op(key + (rows, primes), lambda r=rows, p=primes: _lattice_op(chowkit, r, p))
           for key, rows, primes in inputs]
    while True:
        yield ops


# -- symbolic ------------------------------------------------------------------

# Gr(k, 2k) products: k -> number of seeded pairs and the largest part size.
# Gr(5, 10) uses a fixed pair list: one cold Gr(5, 10) product costs 0.2-0.9 s.
SCHUR_SEEDED = {3: (4, 3), 4: (3, 2)}
SCHUR_FIXED = {5: (((1,), (1,)), ((2,), (1,)))}
D2_DEGREES = (5, 7)
WEIGHT_PRIMES = (3, 5, 7, 11, 13)


def _partitions(k: int, max_size: int):
    out = []

    def rec(prefix, maxpart, left):
        if prefix:
            out.append(tuple(prefix))
        if len(prefix) == k:
            return
        for part in range(min(maxpart, left), 0, -1):
            rec(prefix + [part], part, left - part)

    rec([], k, max_size)
    return sorted(out)


def symbolic_inputs(seed: int):
    """The query pool: every item is asked once per orientation in each round."""
    rng = random.Random(f"symbolic-{seed}")
    pool = []
    for k, (count, max_size) in SCHUR_SEEDED.items():
        parts = _partitions(k, max_size)
        for _ in range(count):
            a, b = rng.choice(parts), rng.choice(parts)
            pool.append(("schur", k, a, b))
            pool.append(("schur", k, b, a))
    for k, pairs in SCHUR_FIXED.items():
        for a, b in pairs:
            pool.append(("schur", k, a, b))
            pool.append(("schur", k, b, a))
    for n in D2_DEGREES:
        for q in range(1, n * (n + 1) // 2 + 1):
            pool.append(("d2", n, q))
    for n in WEIGHT_PRIMES:
        for j in (1, 2, 3):
            pool.append(("weight", n, j, rng.choice(("c", "c'"))))
    return pool, rng


def _symbolic_op(chowkit, key):
    kind = key[0]
    if kind == "schur":
        _, k, a, b = key
        cls = chowkit.schubert.GrChowClass
        return chowkit.schubert.schur_product(cls.schubert(k, 2 * k, a),
                                              cls.schubert(k, 2 * k, b))
    if kind == "d2":
        return chowkit.tate.d2_matrix(key[1], key[2])
    _, n, j, unit = key
    return chowkit.spectral.weight_table(n, j, unit=unit)


def symbolic_rounds(chowkit, seed: int):
    pool, rng = symbolic_inputs(seed)
    while True:
        order = list(pool)
        rng.shuffle(order)
        yield [Op(key, lambda k=key: _symbolic_op(chowkit, k)) for key in order]


# -- forms ---------------------------------------------------------------------

# d = 7 mod 8 and squarefree, so <1,1,1,-d> is anisotropic over Q_2, hence
# over Q; so is every nonzero multiple of it.
ANISOTROPIC_D = (7, 15, 23, 31, 39, 47)
# p = 3 mod 4, so <1,1,-p> is anisotropic.
TERNARY_P = (3, 7, 11, 19, 23)
SCALES = (1, 2, 3, 5, 6, 7, 10)

# One round: (kind, dimension, how many).
FORMS_ROUND = (
    ("anisotropic", 4, 1),
    ("indefinite", 2, 2),
    ("indefinite", 3, 1),
    ("split", 4, 3),
    ("split", 5, 2),
    ("definite", 4, 2),
    ("definite", 6, 2),
    ("similar", 3, 2),
)


def _coefficient(rng):
    return Fraction(rng.randint(1, 12), rng.choice((1, 1, 1, 2, 3)))


def _form(rng, kind: str, dim: int):
    sign = rng.choice((1, -1))
    if kind == "anisotropic":
        c = sign * rng.choice(SCALES)
        form = [c, c, c, -c * rng.choice(ANISOTROPIC_D)]
    elif kind == "definite":
        form = [sign * _coefficient(rng) for _ in range(dim)]
    elif kind == "split":
        # <a, -a s^2> is a hyperbolic plane, so the form is isotropic.
        a = _coefficient(rng)
        form = [a, -a * rng.randint(1, 3) ** 2]
        form += [rng.choice((1, -1)) * _coefficient(rng) for _ in range(dim - 2)]
    else:
        form = [rng.choice((1, -1)) * _coefficient(rng) for _ in range(dim)]
        if all(c > 0 for c in form) or all(c < 0 for c in form):
            form[0] = -form[0]
    rng.shuffle(form)
    return tuple(form)


def _similar_pair(rng):
    c = rng.choice((1, -1)) * rng.choice(SCALES)
    f = [c, c, -c * rng.choice(TERNARY_P)]
    rng.shuffle(f)
    g = [x * rng.randint(1, 3) ** 2 for x in f]
    rng.shuffle(g)
    return tuple(Fraction(x) for x in f), tuple(Fraction(x) for x in g)


def forms_rounds(chowkit, seed: int):
    rng = random.Random(f"forms-{seed}")
    geometry = chowkit.geometry
    while True:
        ops = []
        for kind, dim, count in FORMS_ROUND:
            for _ in range(count):
                if kind == "similar":
                    f, g = _similar_pair(rng)
                    ops.append(Op(("similar", f, g),
                                  lambda f=f, g=g: geometry.similarity_certificate(f, g)))
                else:
                    form = _form(rng, kind, dim)
                    ops.append(Op(("witt", kind, form),
                                  lambda form=form: geometry.witt_split(form)))
        rng.shuffle(ops)
        yield ops


# -- certify -------------------------------------------------------------------


def certify_rounds(run_battery):
    """One operation per round: the whole verify-all battery."""
    op = Op(("verify-all",), run_battery)
    while True:
        yield [op]


# -- plain outcomes --------------------------------------------------------------


def outcome(workload: str, key: tuple, result):
    """Plain, comparable data for one result."""
    if workload == "lattice":
        smith, det, local = result
        return {"diagonal": tuple(smith.diagonal), "left": smith.left.to_lists(),
                "right": smith.right.to_lists(), "det": det, "local": local}
    if workload == "symbolic":
        if key[0] == "schur":
            return {"terms": dict(result.terms), "codim": result.codim}
        if key[0] == "d2":
            return {"rows": result.row_indices, "cols": result.col_indices,
                    "entries": result.entries}
        from chowkit.spectral import render_group
        return {p: render_group(g) for p, g in sorted(result.items())}
    if workload == "forms":
        if key[0] == "similar":
            return None if result is None else {"multiplier": result[0],
                                                "transform": result[1]}
        return {"planes": result.planes, "residual": tuple(result.residual),
                "transform": result.transform, "exhausted": result.search_exhausted}
    return result

