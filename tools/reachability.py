"""Statements of src/chowkit that no pinned `chowkit` run reaches.

Replays every argument list of tests/golden/cli.jsonl through chowkit.cli.main
in this process under sys.settrace, then prints each function of src/chowkit
with the line numbers of its statements that no run executed, and their total.
Docstrings, `raise` statements and the declarations `global` and `nonlocal`
are left out.  A compound statement counts as reached when any line of it ran.

    python tools/reachability.py

It needs only the standard library, and it prints; it checks nothing.
"""

from __future__ import annotations

import ast
import io
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "chowkit"
MANIFEST = ROOT / "tests" / "golden" / "cli.jsonl"
SKIPPED = (ast.Raise, ast.Global, ast.Nonlocal)
SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def replay(runs) -> dict:
    """path -> the set of its line numbers that ran, over every run."""
    sys.path.insert(0, str(PACKAGE.parent))
    prefix = str(PACKAGE) + "/"
    seen = {}

    def local(frame, event, arg):
        if event == "line":
            seen.setdefault(frame.f_code.co_filename, set()).add(frame.f_lineno)
        return local

    def calls(frame, event, arg):
        # Only frames of the package get a line tracer.
        return local if frame.f_code.co_filename.startswith(prefix) else None

    saved = sys.stdout, sys.stderr
    sys.settrace(calls)
    try:
        from chowkit.cli import main
        for run in runs:
            sys.stdout, sys.stderr = io.StringIO(), io.StringIO()
            try:
                main(run["args"])
            except SystemExit:
                pass
            finally:
                sys.stdout, sys.stderr = saved
    finally:
        sys.settrace(None)
    return seen


def statements(tree):
    """(qualified function name, statement) for every statement inside a function."""

    def walk(body, names, in_function):
        for i, node in enumerate(body):
            docstring = i == 0 and isinstance(node, ast.Expr) \
                and isinstance(node.value, ast.Constant) and isinstance(node.value.value, str)
            if in_function and not docstring and not isinstance(node, SKIPPED):
                yield ".".join(names), node
            inner = names + [node.name] if isinstance(node, SCOPES) else names
            is_function = in_function or isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            for field in ("body", "orelse", "finalbody"):
                yield from walk(getattr(node, field, []), inner, is_function)
            for handler in getattr(node, "handlers", []):
                yield from walk(handler.body, inner, is_function)
            for case in getattr(node, "cases", []):
                yield from walk(case.body, inner, is_function)

    yield from walk(tree.body, [], False)


def unreached(seen) -> dict:
    """(file name, function) -> line numbers of its statements that never ran."""
    out = {}
    for path in sorted(PACKAGE.glob("*.py")):
        lines = seen.get(str(path), set())
        for function, node in statements(ast.parse(path.read_text(), str(path))):
            first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", [])])
            if lines.isdisjoint(range(first, node.end_lineno + 1)):
                out.setdefault((path.name, function), []).append(node.lineno)
    return out


def main() -> int:
    runs = [json.loads(line) for line in MANIFEST.read_text().splitlines()]
    missed = unreached(replay(runs))
    for (name, function), linenos in missed.items():
        print(f"{name} {function}: {len(linenos)} ({', '.join(map(str, linenos))})")
    total = sum(map(len, missed.values()))
    print(f"total: {total} unreached statements in {len(missed)} functions, "
          f"over {len(runs)} pinned runs")
    return 0


if __name__ == "__main__":
    sys.exit(main())
