"""Every public function, class and method of chowkit has a caller in the package.

A top-level public function or class must be loaded somewhere in ``src/chowkit``
outside its own definition and outside ``__init__.py``, or be one of the
functions the benchmark's tracer wraps; the CLI's subcommand handlers are
loaded by its dispatch table.  A public method of a public class must be
loaded as an attribute of that name somewhere outside its own body, or be one
of the ``Poly`` methods the tracer wraps; the scan goes by name alone.

A refusal of input is a plain ``ValueError``: the only exception class the
package defines is ``exact.InexactDivisionError``.
"""

import ast
import builtins
import importlib.util
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "chowkit"
TRACER = ROOT / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def package_modules():
    """Module stem -> parsed source, for every module but ``__init__.py``."""
    return {path.stem: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))
            if path.name != "__init__.py"}


def loads(node, bound=frozenset()):
    """Names that node loads from the module scope: a function's parameters
    and assignments shadow the module's names inside it."""
    if isinstance(node, (ast.FunctionDef, ast.Lambda)):
        bound = bound | {a.arg for a in ast.walk(node.args) if isinstance(a, ast.arg)} \
            | {n.id for n in ast.walk(node) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)}
    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) and node.id not in bound:
        yield node.id
    for child in ast.iter_child_nodes(node):
        yield from loads(child, bound)


def orphans():
    """(module, name) for every public top-level def or class with no caller."""
    modules = package_modules()
    imports = {stem: {(node.module, alias.name) for node in ast.walk(tree)
                      if isinstance(node, ast.ImportFrom) and node.level == 1
                      for alias in node.names}
               for stem, tree in modules.items()}
    traced = {(layer, name) for layer, names in load_tracer().TRACED_FUNCTIONS.items()
              for name in names}
    out = []
    for stem, tree in modules.items():
        for defn in tree.body:
            if not isinstance(defn, (ast.FunctionDef, ast.ClassDef)) or defn.name.startswith("_"):
                continue
            if (stem, defn.name) in traced:
                continue
            used = any(defn.name in loads(stmt) for stmt in tree.body if stmt is not defn) or any(
                (stem, defn.name) in imports[other] and defn.name in loads(other_tree)
                for other, other_tree in modules.items() if other != stem)
            if not used:
                out.append(f"{stem}.{defn.name}")
    return out


def attribute_loads(node) -> Counter:
    return Counter(n.attr for n in ast.walk(node)
                   if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load))


def method_orphans():
    """module.Class.method for every public method of a public class that no
    attribute load outside the method's own body names."""
    modules = package_modules()
    loaded = sum((attribute_loads(tree) for tree in modules.values()), Counter())
    traced = {meth for methods in load_tracer().POLY_METHODS.values() for meth in methods}
    out = []
    for stem, tree in modules.items():
        for cls in tree.body:
            if not isinstance(cls, ast.ClassDef) or cls.name.startswith("_"):
                continue
            for defn in cls.body:
                if not isinstance(defn, ast.FunctionDef) or defn.name.startswith("_"):
                    continue
                if cls.name == "Poly" and defn.name in traced:
                    continue
                if loaded[defn.name] == attribute_loads(defn)[defn.name]:
                    out.append(f"{stem}.{cls.name}.{defn.name}")
    return out


def test_every_public_name_has_a_caller():
    assert orphans() == []


def test_every_public_method_has_a_caller():
    assert method_orphans() == []


def exception_classes():
    """module.Class for every class in ``src/chowkit``, nested ones included,
    that derives from a built-in exception directly or through other classes
    of the package; a base is matched by its name alone."""
    classes = {(path.stem, node.name): {base.id if isinstance(base, ast.Name) else base.attr
                                        for base in node.bases
                                        if isinstance(base, (ast.Name, ast.Attribute))}
               for path in sorted(PACKAGE.glob("*.py"))
               for node in ast.walk(ast.parse(path.read_text()))
               if isinstance(node, ast.ClassDef)}
    known = {name for name, value in vars(builtins).items()
             if isinstance(value, type) and issubclass(value, BaseException)}
    found = set()
    while True:
        grown = {key for key, bases in classes.items() if bases & known}
        if grown == found:
            return sorted(f"{stem}.{name}" for stem, name in found)
        found = grown
        known |= {name for _, name in found}


def test_the_only_exception_class_is_inexact_division():
    assert exception_classes() == ["exact.InexactDivisionError"]
