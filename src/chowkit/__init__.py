"""chowkit: exact-arithmetic Schubert calculus, quaternion algebra and slice
spectral sequence toolkit.

Everything is computed over arbitrary-precision integers, exact rationals or
integer-coefficient polynomials; there is no floating point in the package.

Each layer loads on first use.  Importing the package puts the seven layer
modules in ``sys.modules`` without running them (``importlib.util.LazyLoader``);
a layer runs the first time one of its attributes is read, directly or through
a name re-exported here.  ``chowkit.cli`` binds these module objects and calls
``layer.name``, so a ``chowkit`` process runs only the layers its subcommand
reaches.
"""

import importlib.util as _util
import sys as _sys

# Layer -> the names the package re-exports from it.
_EXPORTS = {
    "exact": ("IntMatrix", "Poly", "SmithForm", "det_exact", "invertible_over_localization",
              "poly_mul", "smith_normal_form"),
    "algebras": ("QuatAlgebra", "QuatElement", "SplitAlgebra", "enumerate_right_ideals",
                 "independent", "independent_left_ideal", "nrd", "quat_mul"),
    "schubert": ("GrChowClass", "box_partitions", "duality_pairing", "parse_partition",
                 "pieri", "point_count", "schur_product"),
    "hyperplane": ("basis_certificate", "gram_matrix", "hyperplane_mul", "intersection_pairing",
                   "rational_cycle", "tate_iso_check", "verify_c3_twist_identity",
                   "verify_cycle_recursion"),
    "tate": ("chern_twist", "chern_twist_product", "d2_matrix", "enumerate_multi_indices",
             "gl_tate_pattern", "slice_consistency", "slice_patterns"),
    "spectral": ("apply_d2", "assemble", "build_e2", "render_group", "weight_table"),
    "geometry": ("chart_equation", "classify_chart", "plucker_embed", "verify_quadric_identity",
                 "witt_split"),
}
_LAYER_OF = {name: layer for layer, names in _EXPORTS.items() for name in names}

__all__ = [*_EXPORTS, *_LAYER_OF]
__version__ = "0.1.0"


def _lazy(name):
    """The module, registered in ``sys.modules`` but not yet run.  A reload of
    the package keeps the modules it already has."""
    if name not in _sys.modules:
        spec = _util.find_spec(name)
        spec.loader = _util.LazyLoader(spec.loader)
        _sys.modules[name] = _util.module_from_spec(spec)
        spec.loader.exec_module(_sys.modules[name])
    return _sys.modules[name]


for _layer in _EXPORTS:
    globals()[_layer] = _lazy(f"{__name__}.{_layer}")


def __getattr__(name):
    if name not in _LAYER_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(globals()[_LAYER_OF[name]], name)


def __dir__():
    return sorted({*globals(), *_LAYER_OF})
