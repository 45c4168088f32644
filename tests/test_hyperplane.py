"""The hyperplane-section Chow model: products, pairings, certificates."""

import random

import pytest

from chowkit import hyperplane
from chowkit.exact import IntMatrix, Poly, det_exact
from chowkit.hyperplane import (
    basis_certificate,
    c3_twist_residual,
    format_cycle,
    fundamental_class,
    gram_matrix,
    hyperplane_mul,
    intersection_pairing,
    label_weight,
    middle_classes,
    pairing_matrix,
    point_class,
    rational_cycle,
    reference_bases,
    section_class,
    standard_collection,
    tate_iso_check,
    verify_c3_twist_identity,
    verify_cycle_recursion,
)
from chowkit.schubert import GrChowClass, box_partitions, pieri, schur_product
from test_schubert import complement_partition


def xcls(codim, parts):
    return section_class(codim, {parts: 1})


def restrict_from_gr(c: GrChowClass) -> GrChowClass:
    """Pull a Grassmannian class of codimension <= 4 back to X, same labels."""
    assert (c.k, c.n) == (3, 6) and c.codim <= 4
    return section_class(c.codim, dict(c.terms))


# -- the duality rule, restated ---------------------------------------------------
#
# intersection_pairing applies this same rule (pieri, then complements), so the
# independent check of the middle pairing is the Littlewood-Richardson one in
# test_middle_pairing_matches_lr_triple_product.


def middle_pairing_oracle(lam, mu):
    """Coefficient of the box in s_lam s_mu s_(1), via Pieri and complements only."""
    total = 0
    for nu in pieri(GrChowClass.schubert(3, 6, lam)).terms:
        if complement_partition(nu, 3, 3) == tuple(mu):
            total += 1
    return total


# -- restriction and labels --------------------------------------------------------


def test_restrict_examples():
    r = restrict_from_gr(GrChowClass.schubert(3, 6, (2, 1, 1)))
    assert r == xcls(4, (2, 1, 1))
    assert restrict_from_gr(GrChowClass.schubert(3, 6, ())) == fundamental_class()
    assert restrict_from_gr(GrChowClass.schubert(3, 6, (1,))) == xcls(1, (1,))


def test_equal_classes_hash_equal():
    # Zero classes of every codim are equal, so they must hash alike.
    a, b = section_class(2, {}), section_class(6, {})
    assert a == b
    assert len({a, b}) == 1
    assert len({xcls(3, (2, 1)) - xcls(3, (2, 1)), section_class(0, {})}) == 1


def test_label_degree_rule():
    assert [label_weight(c) for c in range(9)] == [0, 1, 2, 3, 4, 6, 7, 8, 9]
    with pytest.raises(ValueError):
        section_class(5, {(3, 2): 1})     # degree-5 labels do not exist


# -- hyperplane multiplication -------------------------------------------------------


def test_hyperplane_mul_middle_degree():
    assert hyperplane_mul(xcls(4, (2, 2))) == section_class(
        5, {(3, 3): 1, (3, 2, 1): 2, (2, 2, 2): 1})


def test_hyperplane_mul_out_of_middle_is_double_pieri():
    # (2,1,1) is a middle-degree label; leaving CH^4 costs two Pieri steps.
    assert hyperplane_mul(xcls(4, (2, 1, 1))) == section_class(
        5, {(3, 2, 1): 2, (2, 2, 2): 1})


def test_hyperplane_mul_single_step_below_middle():
    assert hyperplane_mul(xcls(3, (2, 1))) == section_class(
        4, {(3, 1): 1, (2, 2): 1, (2, 1, 1): 1})


def test_hyperplane_mul_fundamental():
    assert hyperplane_mul(fundamental_class()) == xcls(1, (1,))


def test_hyperplane_mul_top_degree_rejected():
    with pytest.raises(ValueError, match="no room above the top degree"):
        hyperplane_mul(point_class())


def test_hyperplane_mul_agrees_with_pieri_below_middle():
    for parts in box_partitions(3, 3):
        if sum(parts) > 3:
            continue
        cls = GrChowClass.schubert(3, 6, parts)
        lhs = hyperplane_mul(restrict_from_gr(cls))
        rhs = restrict_from_gr(pieri(cls))
        assert lhs == rhs, parts


# -- intersection pairing --------------------------------------------------------------


def test_gram_entries_and_matrix():
    a, b, c = middle_classes()
    assert intersection_pairing(a, a) == 1
    assert intersection_pairing(b, b) == 0
    assert intersection_pairing(a, c) == 0
    matrix = gram_matrix([a, b, c])
    assert matrix == IntMatrix.from_rows([[1, 1, 0], [1, 0, 1], [0, 1, 1]])
    assert det_exact(matrix) == -2


def test_middle_pairing_matches_independent_oracle():
    labels = [(3, 1), (2, 2), (2, 1, 1)]
    for lam in labels:
        for mu in labels:
            assert intersection_pairing(xcls(4, lam), xcls(4, mu)) \
                == middle_pairing_oracle(lam, mu)


def test_middle_pairing_matches_lr_triple_product():
    # Independent of the code's route: two middle classes pair through the ambient
    # triple product x * y * sigma_1, formed by the Littlewood-Richardson product.
    labels = box_partitions(3, 3, weight_filter=4)
    for lam in labels:
        for mu in labels:
            x, y = xcls(4, lam), xcls(4, mu)
            assert intersection_pairing(x, y) \
                == pieri(schur_product(x, y)).coefficient((3, 3, 3)), (lam, mu)


# Nonzero entries (i, j) of the pairing matrix of standard_collection(), in the
# order it lists the classes; `chowkit tateiso` pins only the determinant.
STANDARD_PAIRINGS = {
    (0, 16): 1, (1, 7): 1, (1, 15): -1, (2, 14): -1, (3, 13): -1, (4, 4): 1,
    (4, 12): -1, (5, 11): -1, (6, 10): -1, (7, 1): 1, (7, 9): 2, (8, 8): 2,
    (9, 7): 2, (9, 15): -3, (10, 6): -1, (11, 5): -1, (12, 4): -1, (13, 3): -1,
    (14, 2): -1, (15, 1): -1, (15, 9): -3, (16, 0): 1,
}


def test_standard_collection_pairing_matrix_entries():
    rows = pairing_matrix(standard_collection()).to_lists()
    assert rows == [[STANDARD_PAIRINGS.get((i, j), 0) for j in range(17)] for i in range(17)]


def test_gram_singleton_and_empty():
    assert gram_matrix([xcls(4, (3, 1))]) == IntMatrix.from_rows([[1]])
    assert gram_matrix([]).rows == 0


def test_pairing_codim_mismatch():
    with pytest.raises(ValueError, match="codimensions must sum to 8"):
        intersection_pairing(xcls(1, (1,)), xcls(1, (1,)))


def test_pairing_self_adjointness_of_hyperplane():
    # <h*x, y> = <x, h*y> whenever both sides are defined.
    for cx in (0, 1, 2):
        for lam in box_partitions(3, 3, weight_filter=label_weight(cx)):
            x = xcls(cx, lam)
            cy = 8 - cx - 1
            for mu in box_partitions(3, 3, weight_filter=label_weight(cy)):
                y = xcls(cy, mu)
                assert intersection_pairing(hyperplane_mul(x), y) \
                    == intersection_pairing(x, hyperplane_mul(y))


def test_gram_matrix_symmetric_random():
    rng = random.Random(5)
    labels = [(3, 1), (2, 2), (2, 1, 1)]
    for _ in range(10):
        classes = []
        for _ in range(3):
            terms = {lab: rng.randint(-2, 2) for lab in labels}
            classes.append(section_class(4, terms))
        m = gram_matrix(classes)
        assert m.to_lists() == [list(col) for col in zip(*m.to_lists())]


# -- rational cycles --------------------------------------------------------------------


def test_cycle_table_spot_checks():
    a1 = rational_cycle(1)
    assert a1[0] == xcls(3, (3,))
    assert a1[1] == xcls(2, (2,))
    assert a1[2] == xcls(1, (1,))
    a4 = rational_cycle(4)
    assert a4[0] == section_class(6, {(3, 2, 2): -1})
    assert a4[1] == section_class(5, {(3, 2, 1): -1, (2, 2, 2): -1})
    assert a4[2] == section_class(4, {(2, 2): -1})
    a5 = rational_cycle(5)
    assert a5[2] == section_class(5, {(3, 3): -1, (3, 2, 1): 1, (2, 2, 2): -1})


def test_cycle_index_range():
    with pytest.raises(ValueError, match=r"rational cycles are numbered 1\.\.5"):
        rational_cycle(0)
    with pytest.raises(ValueError, match=r"rational cycles are numbered 1\.\.5"):
        rational_cycle(6)


def test_cycle_recursion_holds():
    for i in range(1, 5):
        holds, residual = verify_cycle_recursion(i)
        assert holds
        assert all(r.is_zero for r in residual)
        assert format_cycle(residual) == "0"


def test_cycle_recursion_detects_injected_defect(monkeypatch):
    # Bump the c0 component of cycle 2 by one (3,1) label.
    total, table = hyperplane._CYCLE_TABLE[2]
    bumped = {**table, 0: {**table[0], (3, 1): table[0][(3, 1)] + 1}}
    monkeypatch.setitem(hyperplane._CYCLE_TABLE, 2, (total, bumped))
    holds, residual = verify_cycle_recursion(1)
    assert not holds
    assert residual[0].terms == {(3, 1): -1}
    assert residual[1].is_zero and residual[2].is_zero
    assert format_cycle(residual) == "[-(3,1)]"


# -- Tate-isomorphism and basis certificates ------------------------------------------------


def test_tate_iso_middle_classes():
    pairs = [(4, c) for c in middle_classes()]
    assert tate_iso_check(pairs, {2})
    assert not tate_iso_check(pairs, set())


def test_tate_iso_fundamental_point_pair():
    pairs = [(0, fundamental_class()), (8, point_class())]
    assert tate_iso_check(pairs, set())


def test_tate_iso_full_collection():
    coll = standard_collection()
    assert len(coll) == 17
    assert tate_iso_check(coll, {2})
    assert not tate_iso_check(coll, set())


def test_tate_iso_rejects_asymmetric_multiset():
    with pytest.raises(ValueError, match="count at codim 0 differs from count at 8"):
        tate_iso_check([(0, fundamental_class())], {2})


def test_reference_bases_are_unimodular():
    for codim, classes in reference_bases().items():
        assert basis_certificate(classes, codim), codim


def test_reference_bases_match_stated_lists():
    bases = reference_bases()
    assert bases[3] == [
        xcls(3, (3,)),
        section_class(3, {(3,): 1, (2, 1): 1}),
        section_class(3, {(3,): 1, (2, 1): -1, (1, 1, 1): 1}),
    ]
    assert bases[5] == [
        section_class(5, {(3, 3): 1, (3, 2, 1): -1}),
        section_class(5, {(3, 2, 1): -1, (2, 2, 2): -1}),
        section_class(5, {(3, 3): -1, (3, 2, 1): 1, (2, 2, 2): -1}),
    ]
    assert bases[7] == [section_class(7, {(3, 3, 2): -1})]


def test_scaled_generator_is_not_a_basis():
    assert not basis_certificate([section_class(1, {(1,): 3})], 1)


def test_basis_certificate_rank_mismatch():
    with pytest.raises(ValueError, match="need 2 classes at codim 2, got 1"):
        basis_certificate([xcls(2, (2,))], 2)


# -- Chern twist identity ---------------------------------------------------------------


def test_c3_twist_residual_is_h_cubed():
    assert verify_c3_twist_identity()
    assert c3_twist_residual() == Poly.var("h") ** 3


def test_c3_twist_specializations():
    residual = c3_twist_residual()
    assert residual.substitute({"h": 0}).is_zero
    # Direct evaluation: roots 1,2,3 and h = 1.
    lhs = (1 + 1) * (2 + 1) * (3 + 1)
    e1, e2, e3 = 6, 11, 6
    assert lhs == 24
    assert e3 + 1 * e2 + 1 * e1 + 1 == 24
    value = residual.substitute({"x1": 1, "x2": 2, "x3": 3, "h": 1})
    assert value == 1
