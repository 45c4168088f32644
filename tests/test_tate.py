"""Multi-index patterns, Chern twist expansions and the d2 matrix."""

from collections import Counter
from itertools import combinations

import pytest

from chowkit.exact import Poly
from chowkit.tate import (
    chern_twist,
    chern_twist_product,
    consistency_report,
    d2_matrix,
    d2_matrix_from_chern,
    enumerate_multi_indices,
    format_multi_index,
    gl_tate_pattern,
    max_weight,
    slice_consistency,
    slice_patterns,
    _pattern_product,
)


# -- multi-index enumeration ------------------------------------------------------


def test_enumeration_order_by_length_then_lex():
    assert enumerate_multi_indices(3, weight=3) == [(3,), (1, 2)]
    assert enumerate_multi_indices(6, weight=6) == [(6,), (1, 5), (2, 4), (1, 2, 3)]
    assert enumerate_multi_indices(3, weight=7) == []
    # Subsets longer than the weight allows are never tried, so a huge n is cheap.
    assert enumerate_multi_indices(2 ** 61 - 1, weight=3) == [(3,), (1, 2)]


def test_enumeration_total_is_power_of_two():
    for n in range(1, 7):
        assert sum(len(enumerate_multi_indices(n, weight=w))
                   for w in range(max_weight(n) + 1)) == 2 ** n


def test_weighted_enumeration_matches_subset_filter():
    # The weighted enumeration builds the subsets directly; filtering every
    # subset of {1..n} by its sum is the reference, order included.
    for n in range(1, 14):
        subsets = [c for r in range(n + 1) for c in combinations(range(1, n + 1), r)]
        for weight in range(-1, max_weight(n) + 2):
            expected = [c for c in subsets if sum(c) == weight]
            assert enumerate_multi_indices(n, weight=weight) == expected


def test_multi_index_formatting():
    assert format_multi_index((1, 3)) == "{1,3}"


# -- Tate patterns ------------------------------------------------------------------


def test_gl_pattern_degree_two():
    assert gl_tate_pattern(2) == Counter({(0, 0): 1, (1, 1): 1, (2, 3): 1, (3, 4): 1})


def test_gl_pattern_degree_one():
    assert gl_tate_pattern(1) == Counter({(0, 0): 1, (1, 1): 1})


def test_gl_pattern_total_counts():
    for n in range(1, 6):
        assert gl_tate_pattern(n).total() == 2 ** n


def test_gl_pattern_matches_subset_listing():
    # The pattern is counted off prod (1 + y t^i); listing every subset of
    # {1..n} is the reference.
    for n in range(1, 14):
        listed = Counter((sum(c), 2 * sum(c) - r)
                         for r in range(n + 1) for c in combinations(range(1, n + 1), r))
        assert gl_tate_pattern(n) == listed, n


def test_gl_pattern_is_sl_pattern_times_gm():
    # M(GL_n) = M(SL_n) (Z + Z(1)[1]), and M(SL_n) has one summand per
    # multi-index in {2..n}: the factors i = 2..n of the generating function.
    for n in range(1, 14):
        sl = _pattern_product(2, n)
        listed = Counter((sum(c), 2 * sum(c) - r)
                         for r in range(n) for c in combinations(range(2, n + 1), r))
        assert sl == listed, n
        gm_twist = Counter({(q + 1, p + 1): m for (q, p), m in sl.items()})
        assert gl_tate_pattern(n) == sl + gm_twist, n


def test_slice_patterns_degree_three():
    sp = slice_patterns(3)
    assert sp[1] == Counter({(1, 1): 1})
    assert sp[3] == Counter({(3, 4): 1, (3, 5): 1})
    assert sp[9] == Counter({(9, 16): 1})
    assert set(sp) == {1, 2, 3, 4, 5, 6, 9}


def test_slice_patterns_need_prime_degree():
    with pytest.raises(ValueError, match="slice patterns are stated for prime degree"):
        slice_patterns(4)


def test_slice_consistency():
    for n in (2, 3, 5):
        assert slice_consistency(n)


def test_pattern_checks_report():
    report = consistency_report()
    assert report["all"]
    assert report["gl_quaternion_split"]
    assert report["sl_quaternion_split"]
    assert report["slice_consistency"] == {2: True, 3: True}


# -- Chern twist expansion -------------------------------------------------------------


def test_chern_twist_small_cases():
    lam, c1, c2, c3 = Poly.variables_of("lam", "c1", "c2", "c3")
    assert chern_twist(1) == c1
    assert chern_twist(2) == c2 - lam * c1
    assert chern_twist(3) == c3 - 2 * lam * c2 + lam ** 2 * c1


def test_chern_twist_specializes_to_untwisted():
    for k in range(1, 6):
        assert chern_twist(k).substitute({"lam": 0}) == Poly.var(f"c{k}")


def test_chern_twist_product_examples():
    lam, c1, c2 = Poly.variables_of("lam", "c1", "c2")
    flipped = chern_twist_product((2,)).substitute({"lam": -lam})
    assert flipped == c2 + lam * c1
    assert chern_twist_product(()) == Poly.const(1)
    prod = chern_twist_product((1, 2)).substitute({"lam": -lam})
    assert prod.coefficient("lam", 1) == c1 ** 2


# -- the differential matrix --------------------------------------------------------------


def entry(matrix, row, col):
    return matrix.entries[matrix.row_indices.index(row)][matrix.col_indices.index(col)]


def test_d2_entries_degree_three():
    assert entry(d2_matrix(3, 1), (1,), (2,)) == 1
    m2 = d2_matrix(3, 2)
    assert entry(m2, (2,), (3,)) == 2
    assert entry(m2, (2,), (1, 2)) == 0
    m3 = d2_matrix(3, 3)
    assert entry(m3, (1, 2), (1, 3)) == 2
    assert entry(m3, (3,), (1, 3)) == 0


def test_d2_range_and_primality_errors():
    with pytest.raises(ValueError, match=r"twist weight must lie in 1\.\.6"):
        d2_matrix(3, 0)
    with pytest.raises(ValueError, match=r"twist weight must lie in 1\.\.6"):
        d2_matrix(3, 7)
    with pytest.raises(ValueError, match="differential matrices are stated for prime degree"):
        d2_matrix(6, 1)


def test_d2_oracle_equivalence_exhaustive():
    cases = [(n, q) for n in (2, 3, 5, 7) for q in range(1, max_weight(n) + 1)]
    # n = 11, q = 9..12 reaches the two-digit subscripts c10 and c11.
    cases += [(11, q) for q in range(9, 13)]
    for n, q in cases:
        closed = d2_matrix(n, q)
        derived = d2_matrix_from_chern(n, q)
        assert closed.entries == derived.entries, (n, q)


def test_d2_structure_rules():
    cases = [(n, q) for n in (3, 5, 7) for q in range(1, max_weight(n) + 1)]
    cases += [(11, q) for q in range(9, 13)]
    for n, q in cases:
        m = d2_matrix(n, q)
        for i, row in enumerate(m.row_indices):
            for j, col in enumerate(m.col_indices):
                value = m.entries[i][j]
                if len(row) != len(col):
                    assert value == 0
                    continue
                diffs = [(a, b) for a, b in zip(row, col) if a != b]
                if len(diffs) == 1 and diffs[0][1] == diffs[0][0] + 1:
                    assert value == diffs[0][0] % n
                else:
                    assert value == 0


def test_d2_json_labels():
    doc = d2_matrix(3, 2).to_dict()
    assert doc["rows"] == ["{2}"]
    assert doc["cols"] == ["{3}", "{1,2}"]
    assert doc["entries"] == [[2, 0]]
    assert doc["unit"] == "c*[A]"
