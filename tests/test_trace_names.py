"""The benchmark's traced run finds every function it wraps."""

import importlib
import importlib.util
from pathlib import Path

from chowkit.exact import Poly

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def test_traced_functions_exist():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = [f"chowkit.{layer}.{name}"
               for layer, names in tracer.TRACED_FUNCTIONS.items()
               for name in names
               if not hasattr(importlib.import_module(f"chowkit.{layer}"), name)]
    missing += [f"chowkit.exact.Poly.{meth}"
                for methods in tracer.POLY_METHODS.values()
                for meth in methods if meth not in Poly.__dict__]
    assert not missing
