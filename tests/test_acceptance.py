"""Acceptance criteria.

One test per criterion; each prints a single pass/fail line (visible with
pytest -s or in the captured output of a failing run).  Each criterion runs
its check from the `chowkit verify all` registry and pins the returned
payload to the literal values below, so the battery is written once.  All
arithmetic in the package is exact, so every comparison is exact equality.
"""

from chowkit.cli import VERIFICATIONS

CHECKS = dict(VERIFICATIONS)


def check(number, name, key, expected):
    ok, payload = CHECKS[key]()
    passed = ok and payload == expected
    print(f"ACCEPTANCE {number:02d} {name}: {'PASS' if passed else 'FAIL'}")
    assert (ok, payload) == (True, expected), f"criterion {number} ({name}) failed"


def test_criterion_01_pieri_regression():
    check(1, "pieri regression", "pieri_regression",
          {"grassmannian": "(2,2,1) + (3,1,1)", "section": "(2,2,2) + 2(3,2,1) + (3,3)"})


def test_criterion_02_pieri_schur_oracle_equivalence():
    check(2, "pieri/Schur oracle equivalence", "pieri_schur_agreement",
          {"partitions_checked": 20, "disagreements": []})


def test_criterion_03_gram_certificate():
    check(3, "Gram certificate", "gram_certificate",
          {"matrix": [[1, 1, 0], [1, 0, 1], [0, 1, 1]], "det": -2,
           "invertible_with_2_inverted": True, "invertible_over_Z": False})


def test_criterion_04_rational_cycle_recursion():
    check(4, "rational cycle recursion mod 3", "cycle_recursion",
          {"steps": {str(i): {"holds": True, "residual": "0"} for i in range(1, 5)}})


def test_criterion_05_basis_certificates():
    check(5, "basis certificates", "basis_certificates",
          {"codims": {"1": True, "2": True, "3": True, "5": True, "6": True, "7": True}})


def test_criterion_06_chern_twist_identity():
    check(6, "Chern twist identity residual h^3", "chern_twist_identity",
          {"residual": "h^3"})


def test_criterion_07_quadric_identity():
    check(7, "quadric identity", "quadric_identity",
          {"symbolic_zero": True, "samples": 200, "samples_zero": True})


def test_criterion_08_chart_sweep():
    charts = {"1,2,3": "SL", "1,2,4": "graph", "1,2,5": "graph", "1,2,6": "graph",
              "1,3,4": "graph", "1,3,5": "graph", "1,3,6": "graph", "1,4,5": "graph",
              "1,4,6": "graph", "1,5,6": "graph", "2,3,4": "graph", "2,3,5": "graph",
              "2,3,6": "graph", "2,4,5": "graph", "2,4,6": "graph", "2,5,6": "graph",
              "3,4,5": "graph", "3,4,6": "graph", "3,5,6": "graph", "4,5,6": "SL"}
    check(8, "chart sweep", "chart_sweep",
          {"charts": charts, "counts": {"SL": 2, "graph": 18},
           "chart_124_equation": "-a51*a62 + a52*a61 + a33", "chart_124_verbatim": True})


def test_criterion_09_gl_motive_patterns():
    check(9, "GL motive patterns and slice consistency", "gl_patterns",
          {"gl2_pattern": {"(0,0)": 1, "(1,1)": 1, "(2,3)": 1, "(3,4)": 1},
           "slice_consistency": {"2": True, "3": True, "5": True},
           "split_checks": {"gl_quaternion_split": True, "sl_quaternion_split": True,
                            "slice_consistency": {2: True, 3: True}}})


def test_criterion_10_differential_oracle():
    check(10, "d2 closed form equals Chern-coefficient oracle", "d2_oracle",
          {"matrices_checked": 24})


def test_criterion_11_spectral_sequence_tables():
    check(11, "spectral sequence weight tables", "ss_tables",
          {"tables": {"1": {"1": "Z"},
                      "2": {"2": "F*", "3": "nZ"},
                      "3": {"1": "H^{0,2}(F)", "2": "H^{1,2}(F)", "3": "H^{2,2}(F)",
                            "4": "Z + (F*)^n", "5": "nZ"}},
           "unit_invariant": True,
           "assumption": "extensions across the abutment filtration are taken split"})


def test_criterion_12_ideal_enumeration():
    check(12, "ideal enumeration and independence", "ideal_enumeration",
          {"counts": {"n=2,k=1": 3, "n=3,k=1": 7, "n=3,k=2": 7},
           "independence_routes_agree": True})
