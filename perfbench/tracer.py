"""Spans around the calls into chowkit's public functions, recorded from outside.

The tracer replaces each listed function in every ``chowkit`` module namespace
that holds it (so names bound by ``from .x import y`` are caught too) and wraps
``Poly``'s arithmetic methods.  Each call becomes one span: name, start, end
and the index of the enclosing span.  Spans live in flat arrays in memory and
are written out once, at the end of the traced run.  Nothing inside the
package changes; uninstall() puts every original back.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array

# Layer -> public functions whose calls are traced.  Generators are left out:
# a span around one would time only the creation of the iterator.
TRACED_FUNCTIONS = {
    "exact": ("smith_normal_form", "det_exact", "det_expansion",
              "invertible_over_localization", "poly_mul", "is_prime"),
    "algebras": ("enumerate_right_ideals", "independent", "independent_left_ideal",
                 "rank_modp", "rank_fractions", "quat_mul"),
    "schubert": ("schur_poly", "schur_product", "pieri", "duality_pairing",
                 "point_count", "box_partitions"),
    "hyperplane": ("gram_matrix", "basis_certificate", "tate_iso_check",
                   "intersection_pairing", "pairing_matrix", "hyperplane_mul",
                   "verify_cycle_recursion", "verify_c3_twist_identity"),
    "tate": ("d2_matrix", "d2_matrix_from_chern", "chern_twist_product",
             "enumerate_multi_indices", "slice_patterns", "slice_consistency",
             "gl_tate_pattern", "consistency_report"),
    "spectral": ("weight_table", "build_e2", "apply_d2", "assemble"),
    "geometry": ("witt_split", "find_isotropic", "represent", "congruence_between",
                 "similarity_certificate", "verify_quadric_identity",
                 "quadric_identity_samples", "classify_all_charts", "classify_chart",
                 "chart_equation", "plucker_embed"),
}

# Span name suffix -> Poly methods sharing it (reflected operators count with
# their plain form).
POLY_METHODS = {
    "add": ("__add__", "__radd__"),
    "sub": ("__sub__", "__rsub__"),
    "mul": ("__mul__", "__rmul__"),
    "neg": ("__neg__",),
    "pow": ("__pow__",),
    "divexact": ("divexact",),
    "substitute": ("substitute",),
}


class Tracer:
    """In-memory span recorder.  One instance per traced process."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_of = array("i")       # name id per span
        self.outer = array("b")         # 1 if no enclosing span has the same name
        self.parent = array("i")        # index of the enclosing span, -1 at top
        self.start = array("q")         # perf_counter_ns
        self.end = array("q")
        self._stack = [-1]
        self._active: list[int] = []    # open spans per name id
        self._patches: list[tuple] = []

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self._active.append(0)
        return self._ids[name]

    def wrap(self, name: str, fn):
        nid = self._name_id(name)
        name_of, outer, parent, start, end = \
            self.name_of, self.outer, self.parent, self.start, self.end
        stack, active, clock = self._stack, self._active, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start)
            name_of.append(nid)
            outer.append(active[nid] == 0)
            parent.append(stack[-1])
            end.append(0)
            stack.append(idx)
            active[nid] += 1
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                active[nid] -= 1
                stack.pop()

        return traced

    def install(self):
        """Wrap every listed function wherever a chowkit module binds it."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "chowkit" or n.startswith("chowkit."))]
        for layer, funcs in TRACED_FUNCTIONS.items():
            home = sys.modules[f"chowkit.{layer}"]
            for fname in funcs:
                original = getattr(home, fname)
                wrapped = self.wrap(f"{layer}.{fname}", original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._patches.append((mod, attr, value))
                            setattr(mod, attr, wrapped)
        poly = sys.modules["chowkit.exact"].Poly
        for suffix, methods in POLY_METHODS.items():
            for meth in methods:
                original = poly.__dict__[meth]
                self._patches.append((poly, meth, original))
                setattr(poly, meth, self.wrap(f"exact.Poly.{suffix}", original))

    def uninstall(self):
        for owner, attr, value in reversed(self._patches):
            setattr(owner, attr, value)
        self._patches.clear()

    def summary(self) -> dict:
        """name -> {"calls", "busy_ms", "self_ms"} over all recorded spans.

        busy time counts only spans with no enclosing span of the same name,
        so recursion is not counted twice; self time is a span's duration
        minus the time covered by its direct children.
        """
        count = len(self.start)
        child_ns = [0] * count
        for i in range(count):
            p = self.parent[i]
            if p >= 0:
                child_ns[p] += self.end[i] - self.start[i]
        out = {name: {"calls": 0, "busy_ms": 0.0, "self_ms": 0.0} for name in self.names}
        for i in range(count):
            row = out[self.names[self.name_of[i]]]
            dur = self.end[i] - self.start[i]
            row["calls"] += 1
            if self.outer[i]:
                row["busy_ms"] += dur / 1e6
            row["self_ms"] += (dur - child_ns[i]) / 1e6
        return out

    def write(self, path):
        """One line per span: index, name, start_ns, end_ns, parent index."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("span\tname\tstart_ns\tend_ns\tparent\n")
            for i in range(len(self.start)):
                fh.write(f"{i}\t{self.names[self.name_of[i]]}\t{self.start[i]}\t"
                         f"{self.end[i]}\t{self.parent[i]}\n")

