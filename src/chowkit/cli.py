"""Command-line driver exposing every computation and verification.

Each subcommand prints a deterministic report (text by default, a single JSON
document with --json) and exits 0 on pass/info, 1 on a failed verification,
2 on usage errors.  Timing is deliberately kept out of the output so that
identical runs produce identical bytes.

The command line is read by a small table-driven parser at the end of this
module, on the standard library alone.  It keeps click's grammar and the
wording of its usage errors, which the pinned runs in tests/golden/cli.jsonl
hold.
"""

from __future__ import annotations

import functools
import json
import os
import sys

from .algebras import SplitAlgebra, QuatAlgebra, enumerate_right_ideals, independent, \
    independent_left_ideal, symbolic_quaternion
from .exact import IntMatrix, Poly, Record, det_exact, invertible_over_localization
from .geometry import all_charts, chart_equation, classify_all_charts, plucker_embed, \
    quadric_form_value, quadric_identity_samples, verify_quadric_identity, witt_split
from .hyperplane import basis_certificate, format_cycle, gram_matrix, hyperplane_mul, \
    c3_twist_residual, middle_classes, pairing_matrix, rational_cycle, reference_bases, \
    section_class, section_codim, standard_collection, tate_iso_check, \
    verify_c3_twist_identity, verify_cycle_recursion
from .schubert import GrChowClass, box_partitions, format_partition, parse_partition, \
    pieri, point_count, schur_product
from .spectral import SPLIT_EXTENSION_NOTE, NZ, Z, atom, direct_sum, power_n, \
    render_group, weight_table
from .tate import D2_MAX_DEGREE, consistency_report, d2_matrix, d2_matrix_from_chern, \
    gl_tate_pattern, slice_consistency, max_weight


class UsageError(Exception):
    """A command line that cannot run: exit 2, the message on stderr."""


def _report(command: str, inputs: dict, status: str, payload: dict, as_json: bool,
            text=None):
    """Print one report and exit: 0 on pass or info, 1 on fail.

    With --json the report is one JSON document with the keys command, inputs,
    status and payload.  Otherwise it is the command's own text lines if it
    gives them, else a generic listing of the inputs and the payload.
    """
    if as_json:
        doc = {"command": command, "inputs": inputs, "status": status, "payload": payload}
        print(json.dumps(doc, sort_keys=True, default=str))
    else:
        if text is None:
            text = [f"[{status}] {command}"]
            text += [f"  input {key}: {value}" for key, value in inputs.items()]
            text += [f"  {key}: {json.dumps(value, sort_keys=True, default=str)}"
                     for key, value in sorted(payload.items())]
        print("\n".join(text))
    sys.exit(0 if status in ("pass", "info") else 1)


def _subcommand(fn):
    """Turn any ValueError a subcommand raises into a usage error (exit 2, the
    message on stderr)."""
    @functools.wraps(fn)
    def run(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except ValueError as err:
            raise UsageError(str(err))
    return run


# -- the verification battery ---------------------------------------------------


def _check_pieri_regression():
    gr = pieri(GrChowClass.schubert(3, 6, (2, 1, 1)))
    gr_ok = gr == GrChowClass(3, 6, 5, {(2, 2, 1): 1, (3, 1, 1): 1})
    xr = hyperplane_mul(section_class(4, {(2, 2): 1}))
    xr_ok = xr == section_class(5, {(3, 3): 1, (3, 2, 1): 2, (2, 2, 2): 1})
    return gr_ok and xr_ok, {"grassmannian": str(gr), "section": str(xr)}


def _check_pieri_schur_agreement():
    hyper = GrChowClass.schubert(3, 6, (1,))
    partitions = box_partitions(3, 3)
    bad = []
    for parts in partitions:
        cls = GrChowClass.schubert(3, 6, parts)
        product = pieri(cls)
        # The top class (3,3,3) times the hyperplane leaves the box: both are 0.
        if product != schur_product(hyper, cls) or (sum(parts) == 9 and not product.is_zero):
            bad.append(format_partition(parts))
    return not bad, {"partitions_checked": len(partitions), "disagreements": bad}


def _check_gram_certificate():
    matrix = gram_matrix(middle_classes())
    expected = IntMatrix.from_rows([[1, 1, 0], [1, 0, 1], [0, 1, 1]])
    det = det_exact(matrix)
    with_two = tate_iso_check([(4, c) for c in middle_classes()], {2})
    without = tate_iso_check([(4, c) for c in middle_classes()], set())
    ok = matrix == expected and det == -2 and with_two and not without
    return ok, {"matrix": matrix.to_lists(), "det": det,
                "invertible_with_2_inverted": with_two,
                "invertible_over_Z": without}


def _check_cycle_recursion():
    results = {}
    ok = True
    for i in range(1, 5):
        holds, residual = verify_cycle_recursion(i)
        results[str(i)] = {"holds": holds, "residual": format_cycle(residual)}
        ok = ok and holds
    return ok, {"steps": results}


def _check_basis_certificates():
    results = {}
    ok = True
    for codim, classes in sorted(reference_bases().items()):
        good = basis_certificate(classes, codim)
        results[str(codim)] = good
        ok = ok and good
    return ok, {"codims": results}


def _check_chern_twist_identity():
    return verify_c3_twist_identity(), {"residual": str(c3_twist_residual())}


def _check_quadric_identity():
    symbolic = verify_quadric_identity()
    sampled = quadric_identity_samples(200)
    return symbolic and sampled, {"symbolic_zero": symbolic, "samples": 200,
                                  "samples_zero": sampled}


def _check_chart_sweep():
    rows = {}
    for pivots, cls in classify_all_charts(3).items():
        rows[",".join(map(str, pivots))] = cls.kind
    eq = chart_equation((1, 2, 4))
    expected = Poly.var("a33") - (Poly.var("a51") * Poly.var("a62")
                                  - Poly.var("a52") * Poly.var("a61"))
    verbatim = eq == expected
    counts = {"SL": sum(1 for k in rows.values() if k == "SL"),
              "graph": sum(1 for k in rows.values() if k == "graph")}
    ok = len(rows) == 20 and verbatim
    return ok, {"charts": rows, "counts": counts,
                "chart_124_equation": str(eq), "chart_124_verbatim": verbatim}


def _pattern_json(pattern) -> dict:
    """A Tate pattern (Counter (q, p) -> m) as a JSON object keyed "(q,p)"."""
    return {f"({q},{p})": m for (q, p), m in pattern.items()}


def _check_gl_patterns():
    pattern = gl_tate_pattern(2)
    gl_ok = pattern == {(0, 0): 1, (1, 1): 1, (2, 3): 1, (3, 4): 1}
    slice_ok = {str(n): slice_consistency(n) for n in (2, 3, 5)}
    report = consistency_report()
    ok = gl_ok and all(slice_ok.values()) and report["all"]
    return ok, {"gl2_pattern": _pattern_json(pattern),
                "slice_consistency": slice_ok,
                "split_checks": {k: v for k, v in report.items() if k != "all"}}


def _check_d2_oracle():
    checked = 0
    for n in (2, 3, 5):
        for q in range(1, max_weight(n) + 1):
            closed = d2_matrix(n, q)
            derived = d2_matrix_from_chern(n, q)
            if closed.entries != derived.entries:
                return False, {"counterexample": {"n": n, "q": q}}
            checked += 1
    return True, {"matrices_checked": checked}


def _expected_weight_tables():
    return {
        1: {1: Z},
        2: {2: atom("F*"), 3: NZ},
        3: {1: atom("H^{0,2}(F)"), 2: atom("H^{1,2}(F)"), 3: atom("H^{2,2}(F)"),
            4: direct_sum([Z, power_n("F*")]), 5: NZ},
    }


def _check_ss_tables():
    expected = _expected_weight_tables()
    tables = {}
    ok = invariant = True
    for j in (1, 2, 3):
        table = weight_table(3, j, unit="c")
        tables[str(j)] = {str(p): render_group(g) for p, g in sorted(table.items())}
        ok = ok and table == expected[j]
        # The symbolic unit never enters the rewrite rules.
        invariant = invariant and weight_table(3, j, unit="c'") == table
    return ok and invariant, {"tables": tables, "unit_invariant": invariant,
                              "assumption": SPLIT_EXTENSION_NOTE}


def _check_ideal_enumeration():
    expected = {(2, 1): 3, (3, 1): 7, (3, 2): 7}
    counts = {}
    ok = True
    for (n, k), want in expected.items():
        count, _ = enumerate_right_ideals(SplitAlgebra(n, 2), k)
        counts[f"n={n},k={k}"] = count
        ok = ok and count == want and count == point_count(k, n, 2)
    alg = SplitAlgebra(2, 2)
    elements = list(alg.all_elements())
    agree = all(
        independent(alg, (x, y)) == independent_left_ideal(alg, (x, y))
        for x in elements for y in elements
    )
    return ok and agree, {"counts": counts, "independence_routes_agree": agree}


VERIFICATIONS = (
    ("pieri_regression", _check_pieri_regression),
    ("pieri_schur_agreement", _check_pieri_schur_agreement),
    ("gram_certificate", _check_gram_certificate),
    ("cycle_recursion", _check_cycle_recursion),
    ("basis_certificates", _check_basis_certificates),
    ("chern_twist_identity", _check_chern_twist_identity),
    ("quadric_identity", _check_quadric_identity),
    ("chart_sweep", _check_chart_sweep),
    ("gl_patterns", _check_gl_patterns),
    ("d2_oracle", _check_d2_oracle),
    ("ss_tables", _check_ss_tables),
    ("ideal_enumeration", _check_ideal_enumeration),
)


# -- subcommands ------------------------------------------------------------------


@_subcommand
def verify_all(as_json):
    """Run the full verification battery; exit 0 only if everything passes."""
    checks = []
    for name, fn in VERIFICATIONS:
        ok, payload = fn()
        checks.append({"name": name, "status": "pass" if ok else "fail",
                       "detail": payload})
    failed = [check["name"] for check in checks if check["status"] == "fail"]
    status = "pass" if not failed else "fail"
    lines = [f"[{check['status']}] {check['name']}" for check in checks]
    lines.append(f"result: {status} ({len(checks) - len(failed)}/{len(checks)} passed)")
    _report("verify all", {}, status, {"checks": checks, "failed": failed}, as_json, lines)


@_subcommand
def schubert_mul(first, second, xring, as_json):
    """Product of two Schubert classes, e.g. mul "(2,2)" "(1)"."""
    lam = parse_partition(first)
    mu = parse_partition(second)
    if xring:
        if (1,) not in (lam, mu):
            raise ValueError("--xring multiplies by the hyperplane: one factor must be (1)")
        payload = _mul_h(lam if mu == (1,) else mu)
    else:
        result = schur_product(GrChowClass.schubert(3, 6, lam), GrChowClass.schubert(3, 6, mu))
        payload = {"result": str(result), "codim": result.codim}
    _report("schubert mul", {"first": first, "second": second, "xring": xring}, "info",
            payload, as_json)


def _mul_h(parts) -> dict:
    """Product of the section class labelled parts with the hyperplane class.

    The codimension is read off the label degree before the class is built, so
    a degree-5 label is reported as such even when it also escapes the box.
    """
    result = hyperplane_mul(section_class(section_codim(sum(parts)), {parts: 1}))
    return {"result": str(result), "codim": section_codim(result.codim)}


@_subcommand
def xring_mul_h(label, as_json):
    """Multiply a section class by the hyperplane class."""
    _report("xring mul-h", {"label": label}, "info", _mul_h(parse_partition(label)), as_json)


@_subcommand
def gram_command(as_json):
    """Gram matrix of the three middle-degree classes."""
    ok, payload = _check_gram_certificate()
    _report("gram", {}, "pass" if ok else "fail", payload, as_json)


@_subcommand
def alphas_command(as_json):
    """List the five rational cycles and verify their mod-3 recursion."""
    ok, steps = _check_cycle_recursion()
    cycles = {str(i): format_cycle(rational_cycle(i)) for i in range(1, 6)}
    _report("alphas", {}, "pass" if ok else "fail", {"cycles": cycles, **steps}, as_json)


@_subcommand
def bases_command(as_json):
    """Unimodularity certificates for the six reference bases."""
    ok, payload = _check_basis_certificates()
    lists = {str(c): [str(cls) for cls in classes]
             for c, classes in sorted(reference_bases().items())}
    _report("bases", {}, "pass" if ok else "fail", {"bases": lists, **payload}, as_json)


@_subcommand
def tateiso_command(inverted, as_json):
    """Invertibility of the pairing matrix of the standard collection."""
    primes = set(inverted)
    classes = standard_collection()
    matrix = pairing_matrix(classes)
    det = det_exact(matrix)
    ok = invertible_over_localization(matrix, primes)
    collection = [{"codim": c, "class": str(cls)} for c, cls in classes]
    _report("tateiso", {"invert": sorted(primes)}, "pass" if ok else "fail",
            {"invertible": ok, "determinant": det,
             "collection_size": len(collection), "collection": collection}, as_json)


@_subcommand
def glmotive_command(n, as_json):
    """Tate pattern of GL_n and its total-count identity."""
    pattern = gl_tate_pattern(n)
    ok = pattern.total() == 2 ** n
    _report("glmotive", {"n": n}, "pass" if ok else "fail",
            {"pattern": _pattern_json(pattern), "total": pattern.total()}, as_json)


@_subcommand
def d2_command(n, q, as_json):
    """The second-differential matrix between twists q and q+1."""
    if n > D2_MAX_DEGREE:
        raise ValueError(f"degree must be at most {D2_MAX_DEGREE}")
    matrix = d2_matrix(n, q)
    oracle = d2_matrix_from_chern(n, q)
    ok = matrix.entries == oracle.entries
    _report("d2", {"n": n, "q": q}, "pass" if ok else "fail",
            {"matrix": matrix.to_dict(), "oracle_agrees": ok}, as_json)


@_subcommand
def ss_command(n, weight, as_json):
    """Assembled spectral-sequence table for one weight."""
    table = weight_table(n, weight)
    rendered = {str(p): render_group(g) for p, g in sorted(table.items())}
    width = max(len(k) for k in rendered)
    lines = [f"[info] ss (n={n}, weight={weight})"]
    lines += [f"  p={p:<{width}}  {group}" for p, group in rendered.items()]
    lines.append(f"  note: {SPLIT_EXTENSION_NOTE}")
    _report("ss", {"n": n, "weight": weight}, "info",
            {"table": rendered, "assumptions": [SPLIT_EXTENSION_NOTE]}, as_json, lines)


@_subcommand
def quadric_command(as_json):
    """Symbolic and sampled verification of the embedding quadric identity."""
    ok, payload = _check_quadric_identity()
    _report("quadric", {}, "pass" if ok else "fail", payload, as_json)


@_subcommand
def plucker_command(a, b, as_json):
    """Pluecker embedding of a generic pair for numeric structure constants."""
    if a == 0 or b == 0:
        raise ValueError("structure constants must be nonzero")
    alg = QuatAlgebra(a, b)
    a1 = symbolic_quaternion("1", alg)
    a2 = symbolic_quaternion("2", alg)
    point = plucker_embed(a1, a2)
    residual = point.norms[0] * point.norms[1] - quadric_form_value(alg, point.u)
    ok = residual.is_zero
    _report("plucker", {"a": a, "b": b}, "pass" if ok else "fail",
            {"u": [str(u) for u in point.u], "identity_holds": ok}, as_json)


@_subcommand
def charts_command(degree, as_json):
    """Classify every chart of the block-determinant hyperplane."""
    degree = int(degree)
    table = classify_all_charts(degree)
    expected = all_charts(degree)
    rows = [{"pivots": list(pivots), "kind": cls.kind, "pivot_variable": cls.pivot_variable,
             "equation": str(cls.equation)} for pivots, cls in sorted(table.items())]
    payload = {"charts": rows, "count": len(rows)}
    # Every chart of the degree is classified, and nothing else is.
    mismatch = {"missing": [list(p) for p in expected if p not in table],
                "extra": [list(p) for p in sorted(set(table) - set(expected))]}
    status = "fail" if any(mismatch.values()) else "pass"
    lines = [f"[{status}] charts (degree={degree}, {len(rows)} charts)"]
    for row in rows:
        pivots = ",".join(str(p) for p in row["pivots"])
        pivot_var = row["pivot_variable"] or "-"
        lines.append(f"  {{{pivots}}}  {row['kind']:<5}  pivot={pivot_var:<4}  {row['equation']}")
    if status == "fail":
        payload.update(mismatch)
        lines += [f"  {key}: " + " ".join("{" + ",".join(map(str, p)) + "}" for p in charts)
                  for key, charts in mismatch.items() if charts]
    _report("charts", {"degree": degree}, status, payload, as_json, lines)


@_subcommand
def ideals_command(n, q, k, as_json):
    """Enumerate right ideals of rank k*n in M_n(F_q)."""
    count, ideals = enumerate_right_ideals(SplitAlgebra(n, q), k)
    expected = point_count(k, n, q)
    ok = count == expected
    _report("ideals", {"n": n, "q": q, "k": k}, "pass" if ok else "fail",
            {"count": count, "gaussian_binomial": expected,
             "subspaces": [[list(r) for r in ideal.subspace] for ideal in ideals]}, as_json)


@_subcommand
def witt_command(form, as_json):
    """Witt decomposition of a diagonal rational quadratic form."""
    entries = [int(v) for v in form.split(",") if v.strip()]
    if not entries:
        raise ValueError("empty form")
    decomposition = witt_split(entries)
    _report("witt", {"form": form}, "pass",
            {"hyperbolic_planes": decomposition.planes,
             "residual": [str(d) for d in decomposition.residual],
             "search_exhausted": decomposition.search_exhausted}, as_json)


# -- the command line -------------------------------------------------------------
#
# click's grammar: options may come before, between or after the positional
# arguments; `--opt value` and `--opt=value` both work, and the value is the
# next argument even when it starts with "-"; `--` ends the options; a
# repeated option keeps its last value unless it is repeatable.  A group reads
# options only up to its subcommand's name.


class _Param(Record):
    """One parameter of a subcommand.

    name is "--n" for an option or a flag and "first" for a positional
    argument.  kind is bool for a flag, str for an argument, and for an option
    the type of its value: int, str or a tuple of the allowed words.  dest is
    the handler's keyword when it is not the bare name.  An option is required
    unless it is repeatable; a repeatable one gives the tuple of its values.
    """

    __slots__ = ("name", "kind", "dest", "multiple", "help")
    _defaults = {"dest": None, "multiple": False, "help": ""}


_JSON = _Param("--json", bool, "as_json", help="emit a JSON document")
_HELP = _Param("--help", bool, help="Show this message and exit.")

# The help line of each group; the empty path is `chowkit` itself.
GROUPS = {
    (): "Exact verification toolkit for norm hypersurfaces and their invariants.",
    ("verify",): "Run verification batteries.",
    ("schubert",): "Schubert calculus on Gr(3,6).",
    ("xring",): "The Chow groups of the hyperplane section.",
}

# `chowkit <words>` -> its handler and parameters.  Every subcommand also
# takes --json, and --help.
COMMANDS = {
    ("verify", "all"): (verify_all, ()),
    ("schubert", "mul"): (schubert_mul, (
        _Param("first", str), _Param("second", str),
        _Param("--xring", bool,
               help="multiply inside the hyperplane-section ring (one factor must be (1))"))),
    ("xring", "mul-h"): (xring_mul_h, (_Param("label", str),)),
    ("gram",): (gram_command, ()),
    ("alphas",): (alphas_command, ()),
    ("bases",): (bases_command, ()),
    ("tateiso",): (tateiso_command, (
        _Param("--invert", int, "inverted", multiple=True, help="prime to invert (repeatable)"),)),
    ("glmotive",): (glmotive_command, (_Param("--n", int),)),
    ("d2",): (d2_command, (_Param("--n", int), _Param("--q", int))),
    ("ss",): (ss_command, (_Param("--n", int), _Param("--weight", int))),
    ("quadric",): (quadric_command, ()),
    ("plucker",): (plucker_command, (_Param("--a", int), _Param("--b", int))),
    ("charts",): (charts_command, (_Param("--degree", ("2", "3")),)),
    ("ideals",): (ideals_command, (_Param("--n", int), _Param("--q", int), _Param("--k", int))),
    ("witt",): (witt_command, (
        _Param("--form", str, help="comma-separated diagonal entries, e.g. 1,-2,-3,6,-1"),)),
}


def _split(args, options, interspersed=True):
    """(option name -> its values, in order of first use; positional arguments).

    Without interspersed, the first positional argument ends the options and
    everything from it on is positional, as for a group before its subcommand.
    """
    seen = {}
    positional = []
    rest = iter(args)
    for arg in rest:
        if arg == "--":
            positional += rest
        elif arg[:1] != "-" or arg == "-":
            positional.append(arg)
            if not interspersed:
                positional += rest
        else:
            name, eq, value = arg.partition("=")
            if name not in options:
                if arg[:2] != "--":
                    raise UsageError(f"No such option {arg[:2]!r}.")
                raise _no_such("option", name, options)
            if options[name].kind is bool:
                if eq:
                    raise UsageError(f"Option {name!r} does not take a value.")
                value = True
            elif not eq:
                value = next(rest, None)
                if value is None:
                    raise UsageError(f"Option {name!r} requires an argument.")
            seen.setdefault(name, []).append(value)
    return seen, positional


def _no_such(what: str, name: str, known) -> UsageError:
    """click's error for an unknown long option or subcommand, with the known
    names close to it."""
    # Imported here: only this error needs it, and start-up should not pay for it.
    from difflib import get_close_matches
    close = sorted(get_close_matches(name, known))
    message = f"No such {what} {name!r}."
    if len(close) == 1:
        message += f" Did you mean {close[0]!r}?"
    elif close:
        message += f" (Did you mean one of: {', '.join(map(repr, close))}?)"
    return UsageError(message)


def _convert(param, text):
    """An option's value from its text, or click's usage error for it."""
    if param.kind is int:
        try:
            return int(text)
        except ValueError:
            problem = f"{text!r} is not a valid integer."
    elif isinstance(param.kind, tuple) and text not in param.kind:
        problem = f"{text!r} is not one of {', '.join(map(repr, param.kind))}."
    else:
        return text
    raise UsageError(f"Invalid value for {param.name!r}: {problem}")


def _keywords(params, seen, positional) -> dict:
    """The handler's keyword arguments, checked in click's order: the options
    given, in order of first use, then the other parameters as declared."""
    arguments = [p.name for p in params if p.name[0] != "-"]
    given = dict(zip(arguments, positional))
    used = list(seen)
    kwargs = {}
    for param in sorted(params, key=lambda p: used.index(p.name) if p.name in seen else len(used)):
        dest = param.dest or param.name.lstrip("-")
        if param.kind is bool:
            kwargs[dest] = param.name in seen
        elif param.name in arguments:
            if param.name not in given:
                raise UsageError(f"Missing argument {param.name.upper()!r}.")
            kwargs[dest] = given[param.name]
        elif param.multiple:
            kwargs[dest] = tuple(_convert(param, text) for text in seen.get(param.name, ()))
        elif param.name in seen:
            kwargs[dest] = _convert(param, seen[param.name][-1])
        else:
            choices = " Choose from:\n\t" + ",\n\t".join(param.kind) \
                if isinstance(param.kind, tuple) else ""
            raise UsageError(f"Missing option {param.name!r}.{choices}")
    extra = positional[len(arguments):]
    if extra:
        plural = "s" if len(extra) > 1 else ""
        raise UsageError(f"Got unexpected extra argument{plural} ({' '.join(extra)})")
    return kwargs


def _children(path) -> list:
    """The subcommand names of the group at path, sorted."""
    return sorted(key[-1] for key in {**GROUPS, **COMMANDS} if key and key[:-1] == path)


def _summary(path) -> str:
    """The help line of the group or subcommand at path."""
    return GROUPS[path] if path in GROUPS else COMMANDS[path][0].__doc__


def _metavar(kind) -> str:
    if isinstance(kind, tuple):
        return f" [{'|'.join(kind)}]"
    return {bool: "", int: " INTEGER", str: " TEXT"}[kind]


def _usage(path) -> str:
    words = " ".join(("chowkit", *path))
    if path in GROUPS:
        return f"{words} [OPTIONS] COMMAND [ARGS]..."
    arguments = [p.name.upper() for p in COMMANDS[path][1] if p.name[0] != "-"]
    return " ".join([words, "[OPTIONS]", *arguments])


def _help(path, file):
    """Print the help of `chowkit <path>`: its usage, its description, its
    options and, for a group, its subcommands."""
    params = () if path in GROUPS else COMMANDS[path][1] + (_JSON,)
    options = [(p.name + _metavar(p.kind),
                p.help if p.kind is bool or p.multiple else f"{p.help}  [required]".lstrip())
               for p in params + (_HELP,) if p.name[0] == "-"]
    sections = [("Options:", options)]
    if path in GROUPS:
        sections.append(("Commands:", [(name, _summary(path + (name,)))
                                       for name in _children(path)]))
    lines = [f"Usage: {_usage(path)}", "", f"  {_summary(path)}"]
    for title, rows in sections:
        width = max(len(left) for left, _ in rows)
        lines += ["", title] + [f"  {left:<{width}}  {right}".rstrip() for left, right in rows]
    print("\n".join(lines), file=file)


def main(argv=None, standalone_mode=True):
    """Run `chowkit <argv>`, sys.argv[1:] by default; every run ends in SystemExit.

    standalone_mode is click's keyword, kept because perfbench/worker.py calls
    main(["verify", "all", "--json"], standalone_mode=False); the run ends in
    the same SystemExit either way, and that caller catches it.
    """
    args = sys.argv[1:] if argv is None else list(argv)
    group_options = {"--help": _HELP}
    path = ()
    try:
        while path in GROUPS:
            if not args:
                _help(path, sys.stderr)
                sys.exit(2)
            seen, rest = _split(args, group_options, interspersed=False)
            if not seen and rest[:1] and rest[0][:1] == "-":
                # Only after "--" can a subcommand name start with "-"; click
                # then reads it and all that follows as options once more.
                seen = _split(rest, group_options, interspersed=False)[0]
            if seen:
                _help(path, sys.stdout)
                sys.exit(0)
            if not rest:
                raise UsageError("Missing command.")
            names = _children(path)
            if rest[0] not in names:
                raise _no_such("command", rest[0], names)
            path, args = path + (rest[0],), rest[1:]
        handler, params = COMMANDS[path]
        params += (_JSON,)
        options = {p.name: p for p in params + (_HELP,) if p.name[0] == "-"}
        seen, positional = _split(args, options)
        if "--help" in seen:
            _help(path, sys.stdout)
            sys.exit(0)
        handler(**_keywords(params, seen, positional))
    except UsageError as err:
        print(f"Usage: {_usage(path)}\nTry '{' '.join(('chowkit', *path))} --help' for help."
              f"\n\nError: {err}", file=sys.stderr)
        sys.exit(2)
    except BrokenPipeError:
        # The reader left early, as `head` does: exit 1 with nothing on stderr.
        # Python flushes stdout once more at exit, so point it at devnull.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(1)


if __name__ == "__main__":
    main()
