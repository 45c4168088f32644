"""Schubert calculus on Gr(k, n): Pieri, Schur products, duality, counts."""

import importlib.util
import random
from itertools import combinations, combinations_with_replacement
from pathlib import Path

import pytest

from chowkit.exact import Poly, det_expansion
from chowkit.schubert import (
    GrChowClass,
    box_partitions,
    duality_pairing,
    format_partition,
    normalize_partition,
    parse_partition,
    pieri,
    point_count,
    schur_product,
    _alternant,
)

ORACLES = Path(__file__).resolve().parent.parent / "perfbench" / "oracles.py"


def sch(parts):
    return GrChowClass.schubert(3, 6, parts)


def complement_partition(parts, k: int, cols: int) -> tuple:
    """The complementary partition inside the k x cols box."""
    padded = tuple(parts) + (0,) * (k - len(parts))
    return normalize_partition(tuple(cols - padded[k - 1 - i] for i in range(k)))


# -- Pieri rule ----------------------------------------------------------------


def test_pieri_adds_one_box():
    assert pieri(sch((2, 1, 1))) == GrChowClass(3, 6, 5, {(2, 2, 1): 1, (3, 1, 1): 1})


def test_pieri_on_empty_partition():
    assert pieri(sch(())) == sch((1,))


def test_pieri_full_box_vanishes():
    assert pieri(sch((3, 3, 3))).is_zero


def test_equal_classes_hash_equal():
    # Zero classes of every codim are equal, so they must hash alike.
    a, b = GrChowClass(3, 6, 2, {}), GrChowClass(3, 6, 5, {})
    assert a == b
    assert len({a, b}) == 1
    assert len({pieri(sch((3, 3, 3))), GrChowClass(3, 6, 0, {})}) == 1


# -- Schur-polynomial products ---------------------------------------------------


def test_schur_matches_pieri_for_the_example():
    assert schur_product(sch((1,)), sch((2, 1, 1))) == pieri(sch((2, 1, 1)))


def test_schur_unit():
    x = sch((2, 1)) + GrChowClass(3, 6, 3, {(3,): 4})
    assert schur_product(sch(()), x) == x


def test_schur_double_hyperplane_on_22():
    result = schur_product(schur_product(sch((2, 2)), sch((1,))), sch((1,)))
    assert result == GrChowClass(3, 6, 6, {(3, 3): 1, (3, 2, 1): 2, (2, 2, 2): 1})


def test_pieri_schur_agreement_exhaustive():
    hyper = sch((1,))
    for parts in box_partitions(3, 3):
        if sum(parts) == 9:
            continue
        cls = sch(parts)
        assert pieri(cls) == schur_product(hyper, cls), parts


def test_schur_commutative_associative_random():
    rng = random.Random(20260808)
    partitions = box_partitions(3, 3)
    for _ in range(25):
        x, y, z = (sch(rng.choice(partitions)) for _ in range(3))
        assert schur_product(x, y) == schur_product(y, x)
        assert schur_product(schur_product(x, y), z) == schur_product(x, schur_product(y, z))


def test_product_grading():
    rng = random.Random(99)
    partitions = box_partitions(3, 3)
    for _ in range(40):
        x, y = sch(rng.choice(partitions)), sch(rng.choice(partitions))
        prod = schur_product(x, y)
        if not prod.is_zero:
            assert prod.codim == x.codim + y.codim


# -- Littlewood-Richardson coefficients against the tableau oracle ---------------


def _lr_oracle():
    spec = importlib.util.spec_from_file_location("perfbench_oracles", ORACLES)
    oracles = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(oracles)
    return oracles.lr_coefficient


def _oracle_product(lr_coefficient, k, n, lam, mu):
    """The product of two Schubert classes from counted LR tableaux."""
    terms = {nu: lr_coefficient(lam, mu, nu)
             for nu in box_partitions(k, n - k, sum(lam) + sum(mu))}
    return GrChowClass(k, n, sum(lam) + sum(mu), terms)


@pytest.mark.parametrize("k", [3, 4])
def test_schur_product_matches_lr_tableaux_on_every_pair(k):
    lr_coefficient = _lr_oracle()
    partitions = box_partitions(k, k)
    for lam in partitions:
        for mu in partitions:
            got = schur_product(GrChowClass.schubert(k, 2 * k, lam),
                                GrChowClass.schubert(k, 2 * k, mu))
            assert got == _oracle_product(lr_coefficient, k, 2 * k, lam, mu), (lam, mu)


def test_schur_product_matches_lr_tableaux_on_gr510_sample():
    lr_coefficient = _lr_oracle()
    rng = random.Random("chowkit-lr-gr510")
    partitions = box_partitions(5, 5)
    for _ in range(40):
        lam, mu = rng.choice(partitions), rng.choice(partitions)
        got = schur_product(GrChowClass.schubert(5, 10, lam), GrChowClass.schubert(5, 10, mu))
        assert got == _oracle_product(lr_coefficient, 5, 10, lam, mu), (lam, mu)


def test_gr510_hyperplane_sweep_matches_pieri():
    hyper = GrChowClass.schubert(5, 10, (1,))
    for parts in box_partitions(5, 5):
        cls = GrChowClass.schubert(5, 10, parts)
        assert schur_product(hyper, cls) == pieri(cls), parts


def test_gr612_product_commutes():
    rng = random.Random("chowkit-lr-gr612")
    partitions = [p for p in box_partitions(6, 6) if 4 <= sum(p) <= 8]
    lam, mu = rng.choice(partitions), rng.choice(partitions)
    x, y = GrChowClass.schubert(6, 12, lam), GrChowClass.schubert(6, 12, mu)
    product = schur_product(x, y)
    assert not product.is_zero
    assert product == schur_product(y, x)


@pytest.mark.parametrize("exponents", [
    (), (0,), (3,), (1, 0), (0, 1), (2, 2), (4, 2, 0), (0, 2, 5), (1, 1, 0),
    (5, 3, 1, 0), (0, 1, 2, 3), (3, 0, 3, 1), (6, 4, 2, 1),
])
def test_alternant_matches_det_expansion(exponents):
    k = len(exponents)
    rows = [[Poly((f"x{i + 1}",), {(e,): 1}) for e in exponents] for i in range(k)]
    assert _alternant(exponents) == det_expansion(rows)


# -- duality -------------------------------------------------------------------


def test_pairing_point_against_fundamental():
    assert duality_pairing(sch((3, 3, 3)), sch(())) == 1


def test_pairing_complementary_pair():
    # The rule duality_pairing applies, restated: nonzero exactly on complementary
    # partitions.  The independent checks are the Littlewood-Richardson ones below.
    assert complement_partition((3, 1), 3, 3) == (3, 2)
    assert duality_pairing(sch((3, 1)), sch((3, 2))) == 1


def test_pairing_non_complementary():
    assert duality_pairing(sch((3, 1)), sch((2, 2, 1))) == 0


def test_pairing_codim_mismatch():
    with pytest.raises(ValueError, match="pairing needs complementary codimensions"):
        duality_pairing(sch((1,)), sch((1,)))


@pytest.mark.parametrize("k, n", [(0, 3), (3, 3), (0, 0)])
def test_point_grassmannians(k, n):
    # Gr(0, n) and Gr(n, n) are points: the one class is the fundamental
    # class, its square is itself, and it pairs to 1 with itself.
    point = GrChowClass.schubert(k, n, ())
    assert schur_product(point, point) == point
    assert duality_pairing(point, point) == 1
    assert pieri(point).is_zero


def test_full_basis_pairing_is_a_permutation_matrix():
    partitions = box_partitions(3, 3)
    matrix = []
    for lam in partitions:
        row = []
        for mu in partitions:
            if sum(lam) + sum(mu) == 9:
                row.append(duality_pairing(sch(lam), sch(mu)))
            else:
                row.append(0)
        matrix.append(row)
    for i, lam in enumerate(partitions):
        assert sum(matrix[i]) == 1
        assert sum(matrix[j][i] for j in range(len(partitions))) == 1
        j = partitions.index(complement_partition(lam, 3, 3))
        assert matrix[i][j] == 1


def lr_pairing(x, y):
    """The coefficient of the full-box class in the Littlewood-Richardson product.

    This is the independent route: duality_pairing reads complements and forms
    no product."""
    return schur_product(x, y).coefficient((x.n - x.k,) * x.k)


@pytest.mark.parametrize("k, n", [(2, 5), (3, 6), (4, 8)])
def test_duality_pairing_matches_lr_on_basis_pairs(k, n):
    cols = n - k
    for lam in box_partitions(k, cols):
        for mu in box_partitions(k, cols, weight_filter=k * cols - sum(lam)):
            x, y = GrChowClass.schubert(k, n, lam), GrChowClass.schubert(k, n, mu)
            assert duality_pairing(x, y) == lr_pairing(x, y), (lam, mu)


@pytest.mark.parametrize("k, n", [(2, 5), (3, 6), (4, 8)])
def test_duality_pairing_matches_lr_on_seeded_sums(k, n):
    rng = random.Random(2600 + n)
    cols = n - k

    def seeded_class(codim):
        return GrChowClass(k, n, codim, {p: rng.randint(-3, 3)
                                         for p in box_partitions(k, cols, weight_filter=codim)})

    for _ in range(12):
        codim = rng.randint(0, k * cols)
        x, y = seeded_class(codim), seeded_class(k * cols - codim)
        assert duality_pairing(x, y) == lr_pairing(x, y), (x, y)


# -- point counts -----------------------------------------------------------------


def mat_rank_f2(rows):
    m = [list(r) for r in rows]
    rank = 0
    for col in range(len(m[0]) if m else 0):
        pivot = next((i for i in range(rank, len(m)) if m[i][col] % 2), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        for i in range(len(m)):
            if i != rank and m[i][col] % 2:
                m[i] = [(a + b) % 2 for a, b in zip(m[i], m[rank])]
        rank += 1
    return rank


def rref_f2(rows):
    m = [list(r) for r in rows]
    rank = 0
    for col in range(len(m[0])):
        pivot = next((i for i in range(rank, len(m)) if m[i][col] % 2), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        for i in range(len(m)):
            if i != rank and m[i][col] % 2:
                m[i] = [(a + b) % 2 for a, b in zip(m[i], m[rank])]
        rank += 1
    return tuple(tuple(r) for r in m[:rank])


def test_point_count_small():
    assert point_count(1, 2, 2) == 3
    assert point_count(0, 5, 3) == 1
    assert point_count(2, 2, 7) == 1


def test_point_count_gr36_f2_against_enumeration():
    # Brute force: canonicalize the row space of every independent 3-set of
    # nonzero vectors in F_2^6.
    vectors = [tuple((v >> i) & 1 for i in range(6)) for v in range(1, 64)]
    seen = set()
    for triple in combinations(vectors, 3):
        if mat_rank_f2(list(triple)) == 3:
            seen.add(rref_f2(list(triple)))
    assert len(seen) == 1395
    assert point_count(3, 6, 2) == 1395


def test_point_count_duality():
    for n in range(1, 7):
        for k in range(n + 1):
            for q in (2, 3, 4):
                assert point_count(k, n, q) == point_count(n - k, n, q)


# -- parsing and formatting ----------------------------------------------------------


def test_partition_roundtrip():
    for parts in box_partitions(3, 3):
        assert parse_partition(format_partition(parts)) == parts
    assert parse_partition("()") == ()
    assert format_partition((3, 2, 1)) == "(3,2,1)"


def test_box_partition_count():
    assert len(box_partitions(3, 3)) == 20
    assert box_partitions(3, 3, weight_filter=4) == [(2, 1, 1), (2, 2), (3, 1)]


def test_box_partitions_match_full_box_filter():
    # Reference: every partition in the box, sorted by (weight, parts), then
    # filtered by weight; order included.
    def full_box(k, cols):
        # Weakly decreasing k-tuples with entries in 0..cols, zeros dropped.
        parts = {tuple(p for p in reversed(c) if p)
                 for c in combinations_with_replacement(range(cols + 1), k)}
        return sorted(parts, key=lambda p: (sum(p), p))

    for k in range(7):
        for cols in range(7):
            everything = full_box(k, cols)
            assert box_partitions(k, cols) == everything, (k, cols)
            for w in range(-1, k * cols + 2):
                expected = [p for p in everything if sum(p) == w]
                assert box_partitions(k, cols, weight_filter=w) == expected, (k, cols, w)
