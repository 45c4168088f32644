"""Importing chowkit registers its seven layers without running them.

Each check runs in a fresh ``python -S`` with ``PYTHONPATH=src``, so no module
that ``site`` imports can hide one that a layer imports.  A layer shows that it
ran by the standard-library modules it imports: ``exact`` imports ``fractions``
and ``heapq``, and only ``geometry`` imports ``random``.

The file needs only the standard library: ``python tests/test_lazy_layers.py``
runs every check on the interpreter that runs it.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

# Layer -> the names the package re-exports from it.
EXPORTS = {
    "exact": ["IntMatrix", "Poly", "SmithForm", "det_exact", "invertible_over_localization",
              "poly_mul", "smith_normal_form"],
    "algebras": ["QuatAlgebra", "QuatElement", "SplitAlgebra", "enumerate_right_ideals",
                 "independent", "independent_left_ideal", "nrd", "quat_mul"],
    "schubert": ["GrChowClass", "box_partitions", "duality_pairing", "parse_partition",
                 "pieri", "point_count", "schur_product"],
    "hyperplane": ["basis_certificate", "gram_matrix", "hyperplane_mul", "intersection_pairing",
                   "rational_cycle", "tate_iso_check", "verify_c3_twist_identity",
                   "verify_cycle_recursion"],
    "tate": ["chern_twist", "chern_twist_product", "d2_matrix", "enumerate_multi_indices",
             "gl_tate_pattern", "slice_consistency", "slice_patterns"],
    "spectral": ["apply_d2", "assemble", "build_e2", "render_group", "weight_table"],
    "geometry": ["chart_equation", "classify_chart", "plucker_embed", "verify_quadric_identity",
                 "witt_split"],
}
PUBLIC = sorted([*EXPORTS, *(name for names in EXPORTS.values() for name in names)])
MARKERS = ("fractions", "heapq", "random")


def fresh(*args):
    """Run ``python -S *args`` with only ``src`` on the path; (stdout, stderr)."""
    done = subprocess.run([sys.executable, "-S", *args], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(SRC)}, timeout=60)
    assert done.returncode == 0, done.stderr
    return done.stdout, done.stderr


def fresh_json(code):
    return json.loads(fresh("-c", "import json, sys\n" + code)[0])


def test_import_registers_every_layer_without_running_it():
    seen = fresh_json(
        "import chowkit\n"
        f"layers = {list(EXPORTS)!r}\n"
        "print(json.dumps({'registered': [sys.modules.get('chowkit.' + l) is getattr(chowkit, l)\n"
        "                                 for l in layers],\n"
        f"                  'ran': [m for m in {MARKERS!r} if m in sys.modules]}}))")
    assert seen == {"registered": [True] * len(EXPORTS), "ran": []}


def test_first_use_runs_that_layer_alone():
    seen = fresh_json(
        "import chowkit\n"
        "chowkit.exact.Poly\n"
        f"print(json.dumps([m for m in {MARKERS!r} if m in sys.modules]))")
    assert seen == ["fractions", "heapq"]


def test_every_name_is_its_layers_attribute():
    differ = fresh_json(
        "import chowkit\n"
        f"exports = {EXPORTS!r}\n"
        "print(json.dumps([name for layer, names in exports.items() for name in names\n"
        "                  if getattr(chowkit, name) is not\n"
        "                  getattr(sys.modules['chowkit.' + layer], name)]))")
    assert differ == []


def test_reload_keeps_the_layers():
    kept = fresh_json(
        "import importlib, chowkit\n"
        "exact, poly = chowkit.exact, chowkit.Poly\n"
        "importlib.reload(chowkit)\n"
        "print(json.dumps([chowkit.exact is exact, chowkit.Poly is poly]))")
    assert kept == [True, True]


def test_star_import_and_dir_give_the_public_names():
    star, listed = fresh_json(
        "namespace = {}\n"
        "exec('from chowkit import *', namespace)\n"
        "import chowkit\n"
        "print(json.dumps([sorted(n for n in namespace if n != '__builtins__'),\n"
        "                  [n for n in dir(chowkit) if not n.startswith('_')]]))")
    assert star == PUBLIC
    assert listed == PUBLIC


def test_cli_module_runs_without_warnings():
    # runpy warns on stderr if the package had put chowkit.cli in sys.modules.
    out, err = fresh("-m", "chowkit.cli", "verify", "all", "--json")
    assert err == ""
    assert json.loads(out)["status"] == "pass"


if __name__ == "__main__":
    checks = [f for name, f in sorted(globals().items()) if name.startswith("test_")]
    for check in checks:
        check()
        print(f"{check.__name__}: ok")
    print(f"{len(checks)} checks pass on Python {sys.version.split()[0]}")
