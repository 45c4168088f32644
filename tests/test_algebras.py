"""Quaternion arithmetic, independence predicates and ideal enumeration."""

import random
from fractions import Fraction

import pytest

from chowkit.algebras import (
    QuatAlgebra,
    QuatElement,
    SplitAlgebra,
    enumerate_right_ideals,
    independent,
    independent_left_ideal,
    nrd,
    quat_mul,
    subspaces,
    symbolic_quaternion,
)
from chowkit.exact import Poly
from chowkit.schubert import point_count


# -- independent oracles ----------------------------------------------------------


def conj(u: QuatElement) -> QuatElement:
    """Standard involution x - y*i - z*j - w*k, so u * conj(u) = nrd(u)."""
    return QuatElement(u.algebra, u.x, -u.y, -u.z, -u.w)


def one(alg: QuatAlgebra) -> QuatElement:
    return alg.element(1)


def rank_f2(rows):
    m = [list(r) for r in rows]
    rank = 0
    ncols = len(m[0]) if m else 0
    for col in range(ncols):
        pivot = next((i for i in range(rank, len(m)) if m[i][col] % 2), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        for i in range(len(m)):
            if i != rank and m[i][col] % 2:
                m[i] = [(a + b) % 2 for a, b in zip(m[i], m[rank])]
        rank += 1
    return rank


def gaussian_binomial(n, k, q):
    num = den = 1
    for i in range(k):
        num *= q ** (n - i) - 1
        den *= q ** (i + 1) - 1
    return num // den


def brute_force_subspace_count(n, k, q):
    """Count k-subspaces of F_q^n by enumerating and canonicalizing bases."""
    seen = set()
    for basis in subspaces(n, k, q):
        # subspaces already yields canonical RREF matrices; recanonicalize by
        # collecting the full row space to cross-check uniqueness.
        span = set()
        vectors = [tuple(0 for _ in range(n))]
        for row in basis:
            vectors = [tuple((a + c * b) % q for a, b in zip(v, row))
                       for v in vectors for c in range(q)]
        span = frozenset(vectors)
        assert span not in seen
        seen.add(span)
    return len(seen)


# -- quaternion multiplication ------------------------------------------------------


@pytest.fixture
def alg():
    return QuatAlgebra(2, 3)


def test_defining_relations(alg):
    i, j, k = alg.gen_i(), alg.gen_j(), alg.gen_k()
    assert quat_mul(i, j) == k
    assert quat_mul(j, i) == alg.element(0, 0, 0, -1)
    assert quat_mul(i, i) == alg.element(2)
    assert quat_mul(j, j) == alg.element(3)


def test_one_is_identity(alg):
    v = alg.element(1, 2, 3, 4)
    assert quat_mul(one(alg), v) == v
    assert quat_mul(v, one(alg)) == v


def test_algebra_mismatch_rejected(alg):
    other = QuatAlgebra(5, 7)
    with pytest.raises(ValueError, match="elements of different quaternion algebras"):
        quat_mul(one(alg), one(other))


def test_char_zero_scalars_only():
    with pytest.raises(TypeError):
        QuatAlgebra(1.5, 2)
    for a, b, name in ((0, 3, "a"), (Poly.zero(), 3, "a"), (2, Poly.zero(), "b")):
        with pytest.raises(ValueError, match=f"structure constant {name} must be nonzero"):
            QuatAlgebra(a, b)


@pytest.mark.parametrize("algebra", [QuatAlgebra(2, 3), QuatAlgebra(Fraction(1, 2), -5),
                                     QuatAlgebra.symbolic()])
def test_ring_results_equal_public_construction(algebra):
    rng = random.Random(11)
    scalars = [0, 1, -3, Fraction(1, 2), Fraction(-4, 3), Fraction(2, 1),
               Poly.var("t"), Poly.const(2), Fraction(1, 3) * Poly.var("a") - 1]
    for _ in range(60):
        u = algebra.element(*(rng.choice(scalars) for _ in range(4)))
        v = algebra.element(*(rng.choice(scalars) for _ in range(4)))
        for result in (u + v, quat_mul(u, v)):
            again = QuatElement(algebra, *result.components())
            assert result == again
            assert hash(result) == hash(again)
            assert [type(c) for c in result.components()] == \
                [type(c) for c in again.components()]
            assert all(isinstance(c, (int, Fraction, Poly)) for c in result.components())


def test_public_constructor_still_checks_components(alg):
    with pytest.raises(TypeError):
        QuatElement(alg, "1", 0, 0, 0)
    with pytest.raises(TypeError):
        alg.element(0, 0, "j", 0)
    with pytest.raises(TypeError):
        alg.element(0.5)


# -- norm and trace -------------------------------------------------------------------


def test_nrd_values(alg):
    assert nrd(alg.element(1, 1, 1, 1)) == 1 - 2 - 3 + 6 == 2
    assert nrd(one(alg)) == 1


def test_nrd_symbolic():
    u = symbolic_quaternion("", QuatAlgebra.symbolic())
    a, b, x, y, z, w = Poly.variables_of("a", "b", "x", "y", "z", "w")
    assert nrd(u) == x ** 2 - a * y ** 2 - b * z ** 2 + a * b * w ** 2


def test_nrd_multiplicative_symbolically():
    alg = QuatAlgebra.symbolic()
    u = symbolic_quaternion("1", alg)
    v = symbolic_quaternion("2", alg)
    assert nrd(quat_mul(u, v)) == Poly._coerce(nrd(u) * nrd(v))


def test_nrd_multiplicative_numeric(alg):
    import random

    rng = random.Random(7)
    for _ in range(100):
        u = alg.element(*(rng.randint(-6, 6) for _ in range(4)))
        v = alg.element(*(rng.randint(-6, 6) for _ in range(4)))
        assert nrd(quat_mul(u, v)) == nrd(u) * nrd(v)


def test_conjugation_gives_norm():
    alg = QuatAlgebra.symbolic()
    u = symbolic_quaternion("", alg)
    prod = quat_mul(u, conj(u))
    assert prod.x == Poly._coerce(nrd(u))
    assert prod.y.is_zero and prod.z.is_zero and prod.w.is_zero


# -- independence -------------------------------------------------------------------


@pytest.mark.parametrize("p", [2, 3])
def test_split_matrix_rejects_ragged_and_wrong_size(p):
    alg = SplitAlgebra(2, p)
    for rows in ([[1, 0], [0]], [[1], [0, 1]], [[1, 0]], [[1, 0], [0, 1], [0, 0]],
                 [[1, 0, 0], [0, 1, 0], [0, 0, 1]], [[1, 0], [0, 1, 1]], []):
        with pytest.raises(ValueError):
            alg.matrix(rows)


def test_split_matrix_normalizes():
    assert SplitAlgebra(2, 3).matrix([[4, -1], [3, 5]]) == ((1, 2), (0, 2))
    assert SplitAlgebra(2, 2).matrix(iter([iter([1, 2]), iter([3, 4])])) == ((1, 0), (1, 0))


@pytest.mark.parametrize("p", [2, 3])
def test_split_mat_mul_and_units(p):
    alg = SplitAlgebra(3, p)
    rng = random.Random(5)
    for _ in range(20):
        x, y = (alg.matrix([[rng.randint(-4, 4) for _ in range(3)] for _ in range(3)])
                for _ in range(2))
        naive = [[sum(x[i][k] * y[k][j] for k in range(3)) for j in range(3)]
                 for i in range(3)]
        assert alg.mat_mul(x, y) == alg.matrix(naive)
    for i in range(3):
        for j in range(3):
            unit = alg.unit_matrix(i, j)
            assert unit is alg.unit_matrix(i, j)
            assert unit == alg.matrix([[int((r, c) == (i, j)) for c in range(3)]
                                       for r in range(3)])


def test_independence_examples():
    m2 = SplitAlgebra(2, 2)
    zero = m2.matrix([[0, 0], [0, 0]])
    assert independent(m2, (m2.matrix([[1, 0], [0, 1]]),))
    assert not independent(m2, (zero, zero))
    e11 = m2.matrix([[1, 0], [0, 0]])
    e22 = m2.matrix([[0, 0], [0, 1]])
    # Independent oracle: the stacked 4x2 matrix has rank 2 over F_2.
    stacked = [row for mat in (e11, e22) for row in mat]
    assert rank_f2(stacked) == 2
    assert independent(m2, (e11, e22))


def test_independence_routes_agree_exhaustively():
    m2 = SplitAlgebra(2, 2)
    elements = list(m2.all_elements())
    assert len(elements) == 16
    for x in elements:
        if x != ((0, 0), (0, 0)):
            assert independent(m2, (x,)) == independent_left_ideal(m2, (x,))
        for y in elements:
            assert independent(m2, (x, y)) == independent_left_ideal(m2, (x, y))


def _random_tuple(rng, n, size, low, high):
    """`size` random n x n integer matrices; half the time they share a kernel vector.

    Each shared-kernel matrix is t_k * A - (A t) e_k^T for a random A and a
    fixed nonzero t with t_k != 0, so it sends t to zero over any ring.
    """
    mats = [[[rng.randint(low, high) for _ in range(n)] for _ in range(n)]
            for _ in range(size)]
    if rng.random() < 0.5:
        return tuple(mats)
    t = [rng.randint(low, high) for _ in range(n)]
    k = rng.randrange(n)
    t[k] = t[k] or 1
    shared = []
    for a in mats:
        at = [sum(a[i][j] * t[j] for j in range(n)) for i in range(n)]
        shared.append([[t[k] * a[i][j] - (at[i] if j == k else 0) for j in range(n)]
                       for i in range(n)])
    return tuple(shared)


def test_independence_routes_agree_on_pairs_over_f3():
    m2 = SplitAlgebra(2, 3)
    elements = list(m2.all_elements())
    assert len(elements) == 81
    verdicts = set()
    for x in elements:
        for y in elements:
            verdict = independent(m2, (x, y))
            assert verdict == independent_left_ideal(m2, (x, y))
            verdicts.add(verdict)
    assert verdicts == {True, False}


@pytest.mark.parametrize("alg, size, low, high", [
    (SplitAlgebra(3, 2), 3, 0, 1),       # seeded triples in M_3(F_2)
])
def test_independence_routes_agree_on_seeded_tuples(alg, size, low, high):
    rng = random.Random(20121)
    verdicts = set()
    for _ in range(300):
        elements = _random_tuple(rng, alg.n, size, low, high)
        verdict = independent(alg, elements)
        assert verdict == independent_left_ideal(alg, elements)
        verdicts.add(verdict)
    assert verdicts == {True, False}


def test_independence_empty_tuple():
    m2 = SplitAlgebra(2, 2)
    with pytest.raises(ValueError, match="independence of an empty tuple"):
        independent(m2, ())
    with pytest.raises(ValueError, match="independence of an empty tuple"):
        independent_left_ideal(m2, ())


# -- right ideal enumeration ----------------------------------------------------------


@pytest.mark.parametrize("n,k,expected", [(2, 1, 3), (3, 1, 7), (3, 2, 7)])
def test_ideal_counts_over_f2(n, k, expected):
    count, ideals = enumerate_right_ideals(SplitAlgebra(n, 2), k)
    assert count == expected
    assert len(ideals) == count
    assert count == brute_force_subspace_count(n, k, 2)


def test_ideal_counts_match_gaussian_binomials():
    for q in (2, 3):
        for n in (2, 3):
            for k in range(n + 1):
                count, _ = enumerate_right_ideals(SplitAlgebra(n, q), k)
                assert count == gaussian_binomial(n, k, q)


def test_ideal_counts_equal_point_counts():
    for q in (2, 3):
        for n in (1, 2, 3):
            for k in range(n + 1):
                count, ideals = enumerate_right_ideals(SplitAlgebra(n, q), k)
                assert count == len(ideals) == point_count(k, n, q)


def test_ideal_bases_have_expected_rank():
    alg = SplitAlgebra(3, 2)
    _, ideals = enumerate_right_ideals(alg, 2)
    for ideal in ideals:
        flat = [[v for row in mat for v in row] for mat in ideal.matrix_basis]
        assert rank_f2(flat) == 2 * 3


def test_enumeration_bound():
    with pytest.raises(ValueError, match="enumeration bound is q <= 3 and n <= 3"):
        enumerate_right_ideals(SplitAlgebra(4, 2), 1)
    with pytest.raises(ValueError, match="enumeration bound is q <= 3 and n <= 3"):
        enumerate_right_ideals(SplitAlgebra(2, 5), 1)
    # The constructor refuses p = None (the rationals) as it refuses a non-prime.
    for p in (None, 1, 4):
        with pytest.raises(ValueError, match="base field order must be prime"):
            enumerate_right_ideals(SplitAlgebra(2, p), 1)
