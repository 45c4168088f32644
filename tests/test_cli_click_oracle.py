"""chowkit's command-line parser against click, on generated argument lists.

chowkit reads its command line with a small table-driven parser that keeps
click's grammar and the wording of its usage errors, without importing click.
This test declares the same commands once more as a click group, by hand, so
that it shares no table with that parser.  Each click callback hands the values
click parsed back to `cli.main` in one canonical spelling: `--opt=value` for
every option value, bare flags, and the positional arguments after `--`.

For each generated argument list the two routes must agree on the exit code,
the stdout bytes and the `Error:` line: click's parse and then `cli.main` on
the canonical spelling, against `cli.main` on the raw list.  `--help` is left
out; its text is pinned in golden/cli.jsonl.
"""

import functools
import hashlib
import math
from collections import namedtuple

import pytest

click = pytest.importorskip("click")

from click.testing import CliRunner
from hypothesis import HealthCheck, given, settings, strategies as st

from cli_runner import invoke

# Values a user might type, chosen so that every run is cheap: valid ones,
# ones the library refuses, text that is no integer, and text that starts with
# "-" or looks like an option.
INTS = ("0", "1", "2", "3", "-3", "x", "-", "--json")
PARTITIONS = ("(1)", "(2,1)", "(2,2)", "()", "(4)", "x", "-1", "--xring")


# kind is "arg", "opt" or "flag"; pool holds the values to draw for it.
Param = namedtuple("Param", "kind name pool type multiple", defaults=(None, False))


def arg(name, pool):
    return Param("arg", name, pool)


def opt(name, type, pool, multiple=False):
    return Param("opt", name, pool, type, multiple)


def flag(name):
    return Param("flag", name, ())


# `chowkit <words>` -> its parameters, in declared order.  Every subcommand
# also takes --json.
TREE = {
    ("verify", "all"): (),
    ("schubert", "mul"): (arg("first", PARTITIONS), arg("second", PARTITIONS),
                          flag("--xring")),
    ("xring", "mul-h"): (arg("label", PARTITIONS),),
    ("gram",): (),
    ("alphas",): (),
    ("bases",): (),
    ("tateiso",): (opt("--invert", click.INT, INTS + ("5", "4"), multiple=True),),
    ("glmotive",): (opt("--n", click.INT, INTS + ("5",)),),
    ("d2",): (opt("--n", click.INT, INTS + ("5", "9")), opt("--q", click.INT, INTS + ("9",))),
    ("ss",): (opt("--n", click.INT, INTS + ("5",)), opt("--weight", click.INT, INTS + ("9",))),
    ("quadric",): (),
    ("plucker",): (opt("--a", click.INT, INTS), opt("--b", click.INT, INTS)),
    ("charts",): (opt("--degree", click.Choice(["2", "3"]), ("2", "3", "4", "x", "", "-2")),),
    ("ideals",): (opt("--n", click.INT, INTS), opt("--q", click.INT, INTS),
                  opt("--k", click.INT, INTS)),
    ("witt",): (opt("--form", click.STRING, ("1,-1", "1,1", "-1", "", ",", "1,0", "x", "--json")),),
}
GROUPS = sorted({path[:i] for path in TREE for i in range(len(path))})
# The battery and the quadric identity take 20-60 ms a run; they are drawn
# less often so that a thousand examples fit in a few seconds.
SLOW = {("verify", "all"), ("quadric",)}
PATHS = [path for path in TREE for _ in range(1 if path in SLOW else 4)]


def canonical(path, params, values) -> list:
    """The argument list that spells click's parsed values one way only."""
    options, flags, positional = [], [], []
    for param in params:
        value = values[param.name.lstrip("-")]
        if param.kind == "arg":
            positional.append(value)
        elif param.kind == "flag":
            flags += [param.name] if value else []
        else:
            options += [f"{param.name}={v}" for v in (value if param.multiple else (value,))]
    return [*path, *options, *flags, "--", *positional]


def click_group():
    """The chowkit command tree as click declares it; each callback puts
    its canonical argument list in parsed."""
    groups = {(): click.Group("chowkit")}
    for path in GROUPS[1:]:
        groups[path] = click.Group(path[-1])
        groups[path[:-1]].add_command(groups[path])
    for path, params in TREE.items():
        params += (flag("--json"),)
        declared = []
        for param in params:
            if param.kind == "arg":
                declared.append(click.Argument([param.name]))
            elif param.kind == "flag":
                declared.append(click.Option([param.name], is_flag=True))
            else:
                declared.append(click.Option([param.name], type=param.type,
                                             multiple=param.multiple, required=not param.multiple))
        callback = functools.partial(
            lambda path, params, **values: parsed.append(canonical(path, params, values)),
            path, params)
        groups[path[:-1]].add_command(click.Command(path[-1], callback=callback, params=declared))
    return groups[()]


parsed = []
GROUP = click_group()


def outcome(exit_code, stdout: bytes, stderr: str):
    errors = [line for line in stderr.splitlines() if line.startswith("Error: ")]
    return exit_code, hashlib.sha256(stdout).hexdigest(), errors[0] if errors else None


@functools.cache
def chowkit_outcome(args: tuple):
    result = invoke(args)
    return outcome(result.exit_code, result.stdout_bytes, result.stderr)


def click_outcome(args: list):
    """click's outcome for args if it refuses them, else chowkit's on the
    canonical spelling of what click parsed."""
    parsed.clear()
    result = CliRunner().invoke(GROUP, args, prog_name="chowkit")
    if parsed:
        assert result.exit_code == 0, result
        return chowkit_outcome(tuple(parsed[0]))
    return outcome(result.exit_code, result.stdout_bytes, result.stderr)


def misspellings(name) -> list:
    """name with one edit: a character dropped or doubled, or a suffix."""
    edits = {name[:i] + name[i + 1:] for i in range(len(name))}
    edits |= {name[:i] + name[i] + name[i:] for i in range(len(name))}
    edits |= {name + suffix for suffix in ("x", "s", "_", "-")}
    return sorted(edits - {name})


def spellings(param) -> list:
    """Each way to give param once, as its tokens; [] leaves it out."""
    name, pool = param.name, param.pool
    if param.kind == "arg":
        return [[value] for value in pool] + [[]]
    if param.kind == "flag":
        return [[], [], [name], [name], [f"{name}=1"], [f"{name}="]]
    return [[name, value] for value in pool] + [[f"{name}={value}"] for value in pool] + [[]]


def permuted(items, index) -> list:
    """The permutation of items numbered index in [0, len(items)!); 0 keeps
    their order."""
    items, out = list(items), []
    for k in range(len(items), 0, -1):
        index, i = divmod(index, k)
        out.append(items.pop(i))
    return out


def command_words(path) -> list:
    """The words of path, mostly as they are; else one of them misspelled,
    or a group option or `--` between the group and its subcommand."""
    variants = [list(path)] * 3 * (len(path) + 1)
    variants += [path[:i] + (word,) + path[i + 1:]
                 for i in range(len(path)) for word in misspellings(path[i])[:4]]
    if len(path) == 2:
        variants += [[path[0], junk, path[1]] for junk in ("--", "--json", "-x", "--bogus")]
    return [list(words) for words in variants]


STRAYS = [["--"], ["-"], ["-x"], ["--bogus"], ["extra"], ["--help=1"]]


@functools.cache
def path_strategies(path):
    """For path: its parameters each given once or left out, up to three
    more parameters, misspelled option names or stray words, and its words."""
    params = TREE[path] + (flag("--json"),)
    extras = [spelling for param in params for spelling in spellings(param) if spelling]
    extras += [[name] for param in params if param.kind != "arg"
               for name in misspellings(param.name)]
    return (st.tuples(*(st.sampled_from(spellings(param)) for param in params)),
            st.lists(st.sampled_from(extras + STRAYS), max_size=3),
            st.sampled_from(command_words(path)))


@st.composite
def argument_lists(draw):
    """A chowkit argument list: a command's parameters given once or left
    out, as `--opt value` or `--opt=value`, and up to three more parameters,
    misspelled option names or stray words such as `--`; all in any order."""
    once, extras, words = path_strategies(draw(st.sampled_from(PATHS)))
    items = [*draw(once), *draw(extras)]
    items = permuted(items, draw(st.integers(0, math.factorial(len(items)) - 1)))
    args = draw(words) + [token for item in items for token in item]
    # A bare --help prints the help, which golden/cli.jsonl pins.
    return [token for token in args if token != "--help"]


@settings(max_examples=1000, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(argument_lists())
def test_parser_agrees_with_click(args):
    seen = invoke(args)
    assert outcome(seen.exit_code, seen.stdout_bytes, seen.stderr) == click_outcome(args), args
