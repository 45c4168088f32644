"""Symbolic spectral-sequence pages, rewrites and assembled tables."""

import re

import pytest

from chowkit.spectral import (
    E2Page,
    NZ,
    Z,
    ZERO,
    apply_d2,
    assemble,
    atom,
    build_e2,
    cech_group,
    cyclic,
    direct_sum,
    Differential,
    power_n,
    render_group,
    weight_table,
)


# -- group expressions ---------------------------------------------------------


def test_direct_sum_normalization():
    assert direct_sum([]) == ZERO == ()
    assert direct_sum([ZERO, Z]) == Z
    flat = direct_sum([Z, direct_sum([atom("F*"), Z])])
    assert flat == (("Z", "Z"), ("atom", "F*"), ("Z", "Z"))


def test_cyclic_one_is_zero():
    assert cyclic(1) == ZERO
    assert cyclic(3) == (("cyclic", "Z/3"),)
    for order in (0, -2):
        with pytest.raises(ValueError):
            cyclic(order)


def test_rendering():
    assert render_group(ZERO) == "0"
    assert render_group(NZ) == "nZ"
    assert render_group(cyclic(3)) == "Z/3"
    assert render_group(power_n("F*")) == "(F*)^n"
    assert render_group(direct_sum([Z, power_n("F*")])) == "Z + (F*)^n"


def test_cech_table_entries():
    assert cech_group(3, 0, 0) == Z
    assert cech_group(3, 1, 0) == ZERO
    assert cech_group(3, 1, 1) == atom("F*")
    assert cech_group(3, 3, 1) == cyclic(3)
    assert cech_group(3, 2, 2) == atom("H^{2,2}(F)")
    assert cech_group(3, 4, 2) == atom("K1(F)/n[A]")
    with pytest.raises(ValueError):
        cech_group(3, 0, 3)


# -- page construction ------------------------------------------------------------


def test_weight_one_single_cell():
    page = build_e2(3, 1)
    assert page.cells == {(0, 1): Z}
    assert page.differentials == ()


def test_weight_two_grid_and_differential():
    page = build_e2(3, 2)
    assert page.cells == {(1, 1): atom("F*"), (3, 1): cyclic(3), (1, 2): Z}
    assert len(page.differentials) == 1
    diff = page.differentials[0]
    assert (diff.source, diff.target) == ((1, 2), (3, 1))
    assert (diff.factor, diff.unit) == (1, "c")


def test_weight_three_differentials():
    page = build_e2(3, 3)
    arrows = {(d.source, d.target): d.factor for d in page.differentials}
    assert arrows == {((2, 2), (4, 1)): 1, ((2, 3), (4, 2)): 2}


def test_equal_pages_hash_equal():
    for n, j in ((3, 1), (3, 2), (3, 3), (5, 3)):
        page, again = build_e2(n, j), build_e2(n, j)
        assert page == again
        assert hash(page) == hash(again)
    assert len({build_e2(3, 1), build_e2(3, 1), build_e2(3, 2)}) == 2


def test_support_is_within_weight():
    for n in (2, 3, 5):
        for j in (1, 2, 3):
            for (p, q) in build_e2(n, j).support():
                assert 0 < q <= j


def test_build_input_validation():
    with pytest.raises(ValueError, match=r"coefficient tables cover weights 1\.\.3"):
        build_e2(3, 4)
    with pytest.raises(ValueError, match="the engine is stated for prime degree"):
        build_e2(4, 2)


# -- rewrite rules ------------------------------------------------------------------


def test_apply_d2_weight_two():
    page = apply_d2(build_e2(3, 2))
    assert page.cells == {(1, 1): atom("F*"), (1, 2): NZ}
    assert page.differentials == ()


def test_apply_d2_weight_three_kernels():
    page = apply_d2(build_e2(3, 3))
    assert page.cell(2, 2) == power_n("F*")
    assert page.cell(2, 3) == NZ
    assert page.cell(4, 1) == ZERO
    assert page.cell(4, 2) == ZERO


def test_zero_differential_passthrough():
    page = build_e2(3, 1)
    assert apply_d2(page).cells == page.cells


def test_unresolvable_differential():
    synthetic = E2Page(3, 2, {(0, 2): cyclic(3), (2, 1): cyclic(3)},
                       (Differential((0, 2), (2, 1), 1, "c"),))
    with pytest.raises(ValueError, match="no kernel rule for source Z/3"):
        apply_d2(synthetic)


def _one_arrow(source, target):
    """A weight-2 page with the single arrow (0, 2) -> (2, 1)."""
    return E2Page(3, 2, {(0, 2): source, (2, 1): target},
                  (Differential((0, 2), (2, 1), 1, "c"),))


@pytest.mark.parametrize("source, target", [
    (direct_sum([Z, Z]), cyclic(3)),                       # two-summand source
    (Z, direct_sum([cyclic(3), cyclic(3)])),                # two-summand target
    (Z, Z),                                                  # free target
    (Z, NZ),                                                 # nZ target
])
def test_rewrite_rules_refuse_other_shapes(source, target):
    # The refusal names the group that has no rule.
    refusal = (f"no kernel rule for source {re.escape(render_group(source))}$"
               f"|no cokernel rule for target {re.escape(render_group(target))}$")
    with pytest.raises(ValueError, match=refusal):
        apply_d2(_one_arrow(source, target))


def test_rewrite_rule_kernels():
    units = cech_group(3, 1, 1)
    assert render_group(units) == "F*"
    for source, kernel in ((units, "(F*)^n"), (Z, "nZ")):
        for target in (cyclic(3), units):
            page = apply_d2(_one_arrow(source, target))
            assert {key: render_group(g) for key, g in page.cells.items()} == {(0, 2): kernel}


# -- assembly ------------------------------------------------------------------------


def test_assemble_weight_tables():
    assert weight_table(3, 1) == {1: Z}
    assert weight_table(3, 2) == {2: atom("F*"), 3: NZ}
    assert weight_table(3, 3) == {
        1: atom("H^{0,2}(F)"),
        2: atom("H^{1,2}(F)"),
        3: atom("H^{2,2}(F)"),
        4: direct_sum([Z, power_n("F*")]),
        5: NZ,
    }


def test_assembly_requires_resolved_page():
    with pytest.raises(ValueError):
        assemble(build_e2(3, 2))


def test_assembly_summand_order():
    table = weight_table(3, 3)
    assert render_group(table[4]) == "Z + (F*)^n"


def test_unit_invariance():
    for j in (1, 2, 3):
        assert weight_table(3, j, unit="c") == weight_table(3, j, unit="c'")


def test_round_trip_idempotence():
    first = weight_table(3, 3)
    second = weight_table(3, 3)
    assert first == second


def test_higher_differential_guard():
    synthetic = E2Page(3, 3, {(0, 3): Z, (3, 1): cyclic(3)}, ())
    with pytest.raises(ValueError, match=r"support admits a d_3 arrow from \(0, 3\) to \(3, 1\)"):
        assemble(synthetic)


def test_degree_two_engine_runs():
    # The engine is generic over the prime; degree 2 assembles its own table.
    table = weight_table(2, 2)
    assert table == {2: atom("F*"), 3: NZ}


def test_large_prime_tables_match_small_prime():
    # build_e2 reads only the twists q <= j, so a large prime costs no more
    # than a small one and assembles the same tables.
    for j in (1, 2, 3):
        expected = weight_table(5, j)
        for p in (23, 97):
            assert weight_table(p, j) == expected, (p, j)
