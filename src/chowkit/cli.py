"""Command-line driver exposing every computation and verification.

Each subcommand prints a deterministic report (text by default, a single JSON
document with --json) and exits 0 on pass/info, 1 on a failed verification,
2 on usage errors.  Timing is deliberately kept out of the output so that
identical runs produce identical bytes.

A handler takes its subcommand's parameters as keywords and returns its
report, (ok, payload) or (ok, payload, text lines), where ok is True (pass),
False (fail) or None (info).  main prints it with the words, the inputs and
the --json it parsed; no handler prints or exits.

Handlers call the layers by module, as ``tate.d2_matrix``.  The modules are the
package's lazily loaded layers, so a process runs only the layers its
subcommand reaches; parsing, --help and usage errors run none.

A usage error is any ValueError: the parser's, or the library's refusal of an
input outside its hypotheses.  main alone turns it into exit 2, with the
message on stderr.

The command line is read by a small table-driven parser at the end of this
module, on the standard library alone.  It keeps click's grammar and the
wording of its usage errors: tests/test_cli_click_oracle.py compares it with
click on generated argument lists, and tests/golden/cli.jsonl pins its runs.
"""

from __future__ import annotations

import json
import os
import sys

from . import algebras, exact, geometry, hyperplane, schubert, spectral, tate


def _status(ok) -> str:
    return "info" if ok is None else "pass" if ok else "fail"


def _report(command: str, inputs: dict, as_json: bool, ok, payload: dict, text=None):
    """Print one report and exit: 0 on pass or info, 1 on fail.

    With --json the report is one JSON document with the keys command, inputs,
    status and payload.  Otherwise it is the command's own text lines if it
    gives them, else a generic listing of the inputs and the payload.  A
    repeatable option's values show sorted, each once.
    """
    status = _status(ok)
    inputs = {key: sorted(set(value)) if type(value) is tuple else value
              for key, value in inputs.items()}
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
    sys.exit(1 if ok is False else 0)


# -- the verification battery ---------------------------------------------------


def _check_pieri_regression():
    gr = schubert.pieri(schubert.GrChowClass.schubert(3, 6, (2, 1, 1)))
    gr_ok = gr == schubert.GrChowClass(3, 6, 5, {(2, 2, 1): 1, (3, 1, 1): 1})
    xr = hyperplane.hyperplane_mul(hyperplane.section_class(4, {(2, 2): 1}))
    xr_ok = xr == hyperplane.section_class(5, {(3, 3): 1, (3, 2, 1): 2, (2, 2, 2): 1})
    return gr_ok and xr_ok, {"grassmannian": str(gr), "section": str(xr)}


def _check_pieri_schur_agreement():
    hyper = schubert.GrChowClass.schubert(3, 6, (1,))
    partitions = schubert.box_partitions(3, 3)
    bad = []
    for parts in partitions:
        cls = schubert.GrChowClass.schubert(3, 6, parts)
        product = schubert.pieri(cls)
        # The top class (3,3,3) times the hyperplane leaves the box: both are 0.
        if product != schubert.schur_product(hyper, cls) \
                or (sum(parts) == 9 and not product.is_zero):
            bad.append(schubert.format_partition(parts))
    return not bad, {"partitions_checked": len(partitions), "disagreements": bad}


def _check_gram_certificate():
    """Gram matrix of the three middle-degree classes."""
    matrix = hyperplane.gram_matrix(hyperplane.middle_classes())
    expected = exact.IntMatrix.from_rows([[1, 1, 0], [1, 0, 1], [0, 1, 1]])
    det = exact.det_exact(matrix)
    with_two = hyperplane.tate_iso_check(hyperplane.middle_classes(), {2})
    without = hyperplane.tate_iso_check(hyperplane.middle_classes(), set())
    ok = matrix == expected and det == -2 and with_two and not without
    return ok, {"matrix": matrix.to_lists(), "det": det,
                "invertible_with_2_inverted": with_two,
                "invertible_over_Z": without}


def _check_cycle_recursion():
    steps = {}
    for i in range(1, 5):
        holds, residual = hyperplane.verify_cycle_recursion(i)
        steps[str(i)] = {"holds": holds, "residual": hyperplane.format_cycle(residual)}
    return all(step["holds"] for step in steps.values()), {"steps": steps}


def _check_basis_certificates():
    codims = {str(codim): hyperplane.basis_certificate(classes, codim)
              for codim, classes in sorted(hyperplane.reference_bases().items())}
    return all(codims.values()), {"codims": codims}


def _check_chern_twist_identity():
    return hyperplane.verify_c3_twist_identity(), \
        {"residual": str(hyperplane.c3_twist_residual())}


def _check_quadric_identity():
    """Symbolic and sampled verification of the embedding quadric identity."""
    symbolic = geometry.verify_quadric_identity()
    sampled = geometry.quadric_identity_samples()
    return symbolic and sampled, {"symbolic_zero": symbolic,
                                  "samples": geometry.QUADRIC_SAMPLES, "samples_zero": sampled}


def _check_chart_sweep():
    rows = {",".join(map(str, pivots)): cls.kind
            for pivots, cls in geometry.classify_all_charts(3).items()}
    eq = geometry.chart_equation((1, 2, 4))
    var = exact.Poly.var
    expected = var("a33") - (var("a51") * var("a62") - var("a52") * var("a61"))
    verbatim = eq == expected
    counts = {kind: list(rows.values()).count(kind) for kind in ("SL", "graph")}
    ok = len(rows) == 20 and verbatim
    return ok, {"charts": rows, "counts": counts,
                "chart_124_equation": str(eq), "chart_124_verbatim": verbatim}


def _pattern_json(pattern) -> dict:
    """A Tate pattern (Counter (q, p) -> m) as a JSON object keyed "(q,p)"."""
    return {f"({q},{p})": m for (q, p), m in pattern.items()}


def _check_gl_patterns():
    pattern = tate.gl_tate_pattern(2)
    gl_ok = pattern == {(0, 0): 1, (1, 1): 1, (2, 3): 1, (3, 4): 1}
    slice_ok = {str(n): tate.slice_consistency(n) for n in (2, 3, 5)}
    report = tate.consistency_report()
    ok = gl_ok and all(slice_ok.values()) and report["all"]
    return ok, {"gl2_pattern": _pattern_json(pattern),
                "slice_consistency": slice_ok,
                "split_checks": {k: v for k, v in report.items() if k != "all"}}


def _check_d2_oracle():
    checked = 0
    for n in (2, 3, 5):
        for q in range(1, tate.max_weight(n) + 1):
            if tate.d2_matrix(n, q) != tate.d2_matrix_from_chern(n, q):
                return False, {"counterexample": {"n": n, "q": q}}
            checked += 1
    return True, {"matrices_checked": checked}


def _expected_weight_tables():
    return {
        1: {1: spectral.Z},
        2: {2: spectral.atom("F*"), 3: spectral.NZ},
        3: {1: spectral.atom("H^{0,2}(F)"), 2: spectral.atom("H^{1,2}(F)"),
            3: spectral.atom("H^{2,2}(F)"),
            4: spectral.direct_sum([spectral.Z, spectral.power_n("F*")]), 5: spectral.NZ},
    }


def _check_ss_tables():
    expected = _expected_weight_tables()
    tables = {}
    ok = invariant = True
    for j in (1, 2, 3):
        table = spectral.weight_table(3, j, unit="c")
        tables[str(j)] = {str(p): spectral.render_group(g) for p, g in sorted(table.items())}
        ok = ok and table == expected[j]
        # The symbolic unit never enters the rewrite rules.
        invariant = invariant and spectral.weight_table(3, j, unit="c'") == table
    return ok and invariant, {"tables": tables, "unit_invariant": invariant,
                              "assumption": spectral.SPLIT_EXTENSION_NOTE}


def _check_ideal_enumeration():
    expected = {(2, 1): 3, (3, 1): 7, (3, 2): 7}
    counts = {}
    ok = True
    for (n, k), want in expected.items():
        count, _ = algebras.enumerate_right_ideals(algebras.SplitAlgebra(n, 2), k)
        counts[f"n={n},k={k}"] = count
        ok = ok and count == want and count == schubert.point_count(k, n, 2)
    alg = algebras.SplitAlgebra(2, 2)
    elements = list(alg.all_elements())
    agree = all(
        algebras.independent(alg, (x, y)) == algebras.independent_left_ideal(alg, (x, y))
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


def verify_all():
    """Run the full verification battery; exit 0 only if everything passes."""
    checks = []
    for name, check in VERIFICATIONS:
        ok, detail = check()
        checks.append({"name": name, "status": _status(ok), "detail": detail})
    failed = [check["name"] for check in checks if check["status"] == "fail"]
    lines = [f"[{check['status']}] {check['name']}" for check in checks]
    lines.append(f"result: {_status(not failed)} ({len(checks) - len(failed)}/{len(checks)} passed)")
    return not failed, {"checks": checks, "failed": failed}, lines


def schubert_mul(first, second, xring):
    """Product of two Schubert classes, e.g. mul "(2,2)" "(1)"."""
    lam, mu = schubert.parse_partition(first), schubert.parse_partition(second)
    if not xring:
        schubert_class = schubert.GrChowClass.schubert
        result = schubert.schur_product(schubert_class(3, 6, lam), schubert_class(3, 6, mu))
        return None, {"result": str(result), "codim": result.codim}
    if (1,) not in (lam, mu):
        raise ValueError("--xring multiplies by the hyperplane: one factor must be (1)")
    return None, _mul_h(lam if mu == (1,) else mu)


def _mul_h(parts) -> dict:
    """Product of the section class labelled parts with the hyperplane class.

    The codimension is read off the label degree before the class is built, so
    a degree-5 label is reported as such even when it also escapes the box.
    """
    codim = hyperplane.section_codim(sum(parts))
    result = hyperplane.hyperplane_mul(hyperplane.section_class(codim, {parts: 1}))
    return {"result": str(result), "codim": hyperplane.section_codim(result.codim)}


def xring_mul_h(label):
    """Multiply a section class by the hyperplane class."""
    return None, _mul_h(schubert.parse_partition(label))


def alphas_command():
    """List the five rational cycles and verify their mod-3 recursion."""
    ok, steps = _check_cycle_recursion()
    cycles = {str(i): hyperplane.format_cycle(hyperplane.rational_cycle(i)) for i in range(1, 6)}
    return ok, {"cycles": cycles, **steps}


def bases_command():
    """Unimodularity certificates for the six reference bases."""
    ok, payload = _check_basis_certificates()
    lists = {str(c): [str(cls) for cls in classes]
             for c, classes in sorted(hyperplane.reference_bases().items())}
    return ok, {"bases": lists, **payload}


def tateiso_command(invert):
    """Invertibility of the pairing matrix of the standard collection."""
    classes = hyperplane.standard_collection()
    matrix = hyperplane.pairing_matrix(classes)
    det = exact.det_exact(matrix)
    ok = exact.invertible_over_localization(matrix, set(invert))
    collection = [{"codim": hyperplane.section_codim(x.codim), "class": str(x)} for x in classes]
    return ok, {"invertible": ok, "determinant": det,
                "collection_size": len(collection), "collection": collection}


def glmotive_command(n):
    """Tate pattern of GL_n and its total-count identity."""
    pattern = tate.gl_tate_pattern(n)
    return pattern.total() == 2 ** n, {"pattern": _pattern_json(pattern),
                                        "total": pattern.total()}


def d2_command(n, q):
    """The second-differential matrix between twists q and q+1."""
    if n > tate.D2_MAX_DEGREE:
        raise ValueError(f"degree must be at most {tate.D2_MAX_DEGREE}")
    matrix = tate.d2_matrix(n, q)
    ok = matrix == tate.d2_matrix_from_chern(n, q)
    return ok, {"matrix": matrix.to_dict(), "oracle_agrees": ok}


def ss_command(n, weight):
    """Assembled spectral-sequence table for one weight."""
    table = spectral.weight_table(n, weight)
    rendered = {str(p): spectral.render_group(g) for p, g in sorted(table.items())}
    width = max(len(k) for k in rendered)
    lines = [f"[info] ss (n={n}, weight={weight})"]
    lines += [f"  p={p:<{width}}  {group}" for p, group in rendered.items()]
    lines.append(f"  note: {spectral.SPLIT_EXTENSION_NOTE}")
    return None, {"table": rendered, "assumptions": [spectral.SPLIT_EXTENSION_NOTE]}, lines


def plucker_command(a, b):
    """Pluecker embedding of a generic pair for numeric structure constants."""
    if a == 0 or b == 0:
        raise ValueError("structure constants must be nonzero")
    alg = algebras.QuatAlgebra(a, b)
    point = geometry.plucker_embed(algebras.symbolic_quaternion("1", alg),
                                   algebras.symbolic_quaternion("2", alg))
    ok = (point.norms[0] * point.norms[1] - geometry.quadric_form_value(alg, point.u)).is_zero
    return ok, {"u": [str(u) for u in point.u], "identity_holds": ok}


def charts_command(degree):
    """Classify every chart of the block-determinant hyperplane."""
    # classify_all_charts covers every chart of the degree, and a chart that
    # matches no smooth shape raises in classify_chart, so a report is a pass.
    table = geometry.classify_all_charts(degree)
    rows = [{"pivots": list(pivots), "kind": cls.kind, "pivot_variable": cls.pivot_variable,
             "equation": str(cls.equation)} for pivots, cls in sorted(table.items())]
    lines = [f"[pass] charts (degree={degree}, {len(rows)} charts)"]
    for row in rows:
        pivots = ",".join(str(p) for p in row["pivots"])
        pivot_var = row["pivot_variable"] or "-"
        lines.append(f"  {{{pivots}}}  {row['kind']:<5}  pivot={pivot_var:<4}  {row['equation']}")
    return True, {"charts": rows, "count": len(rows)}, lines


def ideals_command(n, q, k):
    """Enumerate right ideals of rank k*n in M_n(F_q)."""
    count, ideals = algebras.enumerate_right_ideals(algebras.SplitAlgebra(n, q), k)
    expected = schubert.point_count(k, n, q)
    return count == expected, {
        "count": count, "gaussian_binomial": expected,
        "subspaces": [[list(r) for r in ideal.subspace] for ideal in ideals]}


def witt_command(form):
    """Witt decomposition of a diagonal rational quadratic form."""
    entries = [int(v) for v in form.split(",") if v.strip()]
    if not entries:
        raise ValueError("empty form")
    decomposition = geometry.witt_split(entries)
    return True, {"hyperbolic_planes": decomposition.planes,
                  "residual": [str(d) for d in decomposition.residual],
                  "search_exhausted": decomposition.search_exhausted}


# -- the command line -------------------------------------------------------------
#
# click's grammar: options may come before, between or after the positional
# arguments; `--opt value` and `--opt=value` both work, and the value is the
# next argument even when it starts with "-"; `--` ends the options; a
# repeated option keeps its last value unless it is repeatable.  A group reads
# options only up to its subcommand's name.


class _Param:
    """One parameter of a subcommand.

    name is "--n" for an option or a flag and "first" for a positional
    argument; without its dashes it is the handler's keyword.  kind is bool
    for a flag, str for an argument, and for an option the type of its value:
    int, str or a tuple of the allowed words, which are digits and give an
    int.  An option is required unless it is repeatable; a repeatable one
    gives the tuple of its values.
    """

    __slots__ = ("name", "kind", "multiple", "help")

    def __init__(self, name, kind, multiple=False, help=""):
        self.name, self.kind, self.multiple, self.help = name, kind, multiple, help


_JSON = _Param("--json", bool, help="emit a JSON document")
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
    ("gram",): (_check_gram_certificate, ()),
    ("alphas",): (alphas_command, ()),
    ("bases",): (bases_command, ()),
    ("tateiso",): (tateiso_command, (
        _Param("--invert", int, multiple=True, help="prime to invert (repeatable)"),)),
    ("glmotive",): (glmotive_command, (_Param("--n", int),)),
    ("d2",): (d2_command, (_Param("--n", int), _Param("--q", int))),
    ("ss",): (ss_command, (_Param("--n", int), _Param("--weight", int))),
    ("quadric",): (_check_quadric_identity, ()),
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
                    raise ValueError(f"No such option {arg[:2]!r}.")
                raise _no_such("option", name, options)
            if options[name].kind is bool:
                if eq:
                    raise ValueError(f"Option {name!r} does not take a value.")
                value = True
            elif not eq:
                value = next(rest, None)
                if value is None:
                    raise ValueError(f"Option {name!r} requires an argument.")
            seen.setdefault(name, []).append(value)
    return seen, positional


def _no_such(what: str, name: str, known) -> ValueError:
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
    return ValueError(message)


def _convert(param, text):
    """An option's value from its text, or click's usage error for it."""
    if param.kind is str:
        return text
    if isinstance(param.kind, tuple):
        if text in param.kind:
            return int(text)
        problem = f"{text!r} is not one of {', '.join(map(repr, param.kind))}."
    else:
        try:
            return int(text)
        except ValueError:
            problem = f"{text!r} is not a valid integer."
    raise ValueError(f"Invalid value for {param.name!r}: {problem}")


def _keywords(params, seen, positional) -> dict:
    """The handler's keyword arguments in declared order, checked in click's
    order: the options given, in order of first use, then the other
    parameters as declared."""
    arguments = [p.name for p in params if p.name[0] != "-"]
    given = dict(zip(arguments, positional))
    values = {}
    for param in sorted(params, key=lambda p: [*seen, p.name].index(p.name)):
        if param.kind is bool:
            values[param.name] = param.name in seen
        elif param.name in arguments:
            if param.name not in given:
                raise ValueError(f"Missing argument {param.name.upper()!r}.")
            values[param.name] = given[param.name]
        elif param.multiple:
            values[param.name] = tuple(_convert(param, text) for text in seen.get(param.name, ()))
        elif param.name in seen:
            values[param.name] = _convert(param, seen[param.name][-1])
        else:
            choices = " Choose from:\n\t" + ",\n\t".join(param.kind) \
                if isinstance(param.kind, tuple) else ""
            raise ValueError(f"Missing option {param.name!r}.{choices}")
    extra = positional[len(arguments):]
    if extra:
        plural = "s" if len(extra) > 1 else ""
        raise ValueError(f"Got unexpected extra argument{plural} ({' '.join(extra)})")
    return {p.name.lstrip("-"): values[p.name] for p in params}


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
                raise ValueError("Missing command.")
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
        inputs = _keywords(params, seen, positional)
        as_json = inputs.pop("json")
        _report(" ".join(path), inputs, as_json, *handler(**inputs))
    except ValueError as err:
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
