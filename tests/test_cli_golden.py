"""Golden `chowkit` outputs for every subcommand: exit codes and stdout bytes.

Each subcommand is one group, so a failure names the subcommand that changed.
Every argument list runs twice in process, as text and with --json.  The table
pins each exit code and the `Error: ...` line of stderr, which only a usage
error (exit 2) prints; click words the rest of its usage message differently
from version to version, so nothing else of stderr is read.  One sha256 per group runs over
canonical JSON of the stdout of every run, in table order.
"""

import hashlib
import json

import pytest
from click.testing import CliRunner

from chowkit.cli import main


def runner() -> CliRunner:
    # Older click mixes stderr into stdout unless told not to; newer click
    # always keeps them apart and has no such argument.
    try:
        return CliRunner(mix_stderr=False)
    except TypeError:
        return CliRunner()


# subcommand -> [(arguments, exit code, Error line of stderr or None)]
CASES = {
    "verify all": [
        (("verify", "all"), 0, None),
    ],
    "schubert mul": [
        (("schubert", "mul", "(2,1)", "(2,1)"), 0, None),
        (("schubert", "mul", "(3,3,3)", "(1)"), 0, None),
        (("schubert", "mul", "(2,2)", "(1)", "--xring"), 0, None),
        (("schubert", "mul", "(1)", "(3,3)", "--xring"), 0, None),
        (("schubert", "mul", "(2,1)", "(2,1)", "--xring"), 2,
         "Error: --xring multiplies by the hyperplane: one factor must be (1)"),
        (("schubert", "mul", "(3,2)", "(1)", "--xring"), 2,
         "Error: labels of degree 5 do not occur in the section ring"),
        (("schubert", "mul", "(3,3,3)", "(1)", "--xring"), 2,
         "Error: no room above the top degree"),
        (("schubert", "mul", "(4)", "(1)"), 2, "Error: partition (4,) escapes the 3x3 box"),
        (("schubert", "mul", "(2,x)", "(1)"), 2,
         "Error: invalid literal for int() with base 10: 'x'"),
        (("schubert", "mul", "(1,2)", "(1)"), 2,
         "Error: partition parts must be weakly decreasing"),
    ],
    "xring mul-h": [
        (("xring", "mul-h", "(2,2)"), 0, None),
        (("xring", "mul-h", "()"), 0, None),
        (("xring", "mul-h", "(3,3,2)"), 0, None),
        (("xring", "mul-h", "(3,2)"), 2,
         "Error: labels of degree 5 do not occur in the section ring"),
        (("xring", "mul-h", "(3,3,3)"), 2, "Error: no room above the top degree"),
        (("xring", "mul-h", "(4)"), 2, "Error: partition (4,) escapes the 3x3 box"),
        (("xring", "mul-h", "junk"), 2,
         "Error: invalid literal for int() with base 10: 'junk'"),
    ],
    "gram": [
        (("gram",), 0, None),
    ],
    "alphas": [
        (("alphas",), 0, None),
    ],
    "bases": [
        (("bases",), 0, None),
    ],
    "tateiso": [
        (("tateiso",), 1, None),
        (("tateiso", "--invert", "2"), 0, None),
        (("tateiso", "--invert", "3"), 1, None),
        (("tateiso", "--invert", "3", "--invert", "2"), 0, None),
        (("tateiso", "--invert", "4"), 2, "Error: 4 is not prime"),
        (("tateiso", "--invert", "2", "--invert", "0"), 2, "Error: 0 is not prime"),
        (("tateiso", "--invert", "x"), 2,
         "Error: Invalid value for '--invert': 'x' is not a valid integer."),
    ],
    "glmotive": [
        (("glmotive", "--n", "1"), 0, None),
        (("glmotive", "--n", "3"), 0, None),
        (("glmotive", "--n", "0"), 2, "Error: degree must be at least 1"),
    ],
    "d2": [
        (("d2", "--n", "3", "--q", "2"), 0, None),
        (("d2", "--n", "5", "--q", "4"), 0, None),
        (("d2", "--n", "4", "--q", "1"), 2,
         "Error: differential matrices are stated for prime degree"),
        (("d2", "--n", "3", "--q", "7"), 2, "Error: twist weight must lie in 1..6"),
        (("d2", "--n", "3", "--q", "0"), 2, "Error: twist weight must lie in 1..6"),
    ],
    "ss": [
        (("ss", "--n", "3", "--weight", "3"), 0, None),
        (("ss", "--n", "5", "--weight", "2"), 0, None),
        (("ss", "--n", "4", "--weight", "1"), 2, "Error: the engine is stated for prime degree"),
        (("ss", "--n", "3", "--weight", "9"), 2,
         "Error: coefficient tables cover weights 1..3"),
    ],
    "quadric": [
        (("quadric",), 0, None),
    ],
    "plucker": [
        (("plucker", "--a", "2", "--b", "3"), 0, None),
        (("plucker", "--a", "-1", "--b", "5"), 0, None),
        (("plucker", "--a", "0", "--b", "3"), 2, "Error: structure constants must be nonzero"),
    ],
    "charts": [
        (("charts", "--degree", "2"), 0, None),
        (("charts", "--degree", "3"), 0, None),
        (("charts", "--degree", "4"), 2,
         "Error: Invalid value for '--degree': '4' is not one of '2', '3'."),
    ],
    "ideals": [
        (("ideals", "--n", "2", "--q", "3", "--k", "1"), 0, None),
        (("ideals", "--n", "3", "--q", "2", "--k", "2"), 0, None),
        (("ideals", "--n", "3", "--q", "4", "--k", "1"), 2,
         "Error: base field order must be prime"),
        (("ideals", "--n", "2", "--q", "2", "--k", "3"), 2,
         "Error: ideal rank parameter out of range"),
        (("ideals", "--n", "4", "--q", "2", "--k", "1"), 2,
         "Error: enumeration bound is q <= 3 and n <= 3"),
    ],
    "witt": [
        (("witt", "--form", "1,-2,-3,6,-1"), 0, None),
        (("witt", "--form", "1,1"), 0, None),
        (("witt", "--form", ","), 2, "Error: empty form"),
        (("witt", "--form", "1,0,-1"), 2, "Error: diagonal form must be nondegenerate"),
        (("witt", "--form", "nonsense"), 2,
         "Error: invalid literal for int() with base 10: 'nonsense'"),
    ],
}


GOLDEN_SHA256 = {
    "alphas": "ef789cb0a3909c516d627ca2bea3eb02779b009eb5c3728c86dcdc5f9da98a09",
    "bases": "341430271816150c561c9b72eb7794031db843103b06bbbaa2c8e95ae7d0351a",
    "charts": "1435b1afd502031388e144a56b005bef7f760f434cc7499dacd73839d12f8eb0",
    "d2": "8049c57c293f0e34f3dac07bb11a0846b00bef9636af3441d3fc6e8cee9bb086",
    "glmotive": "9dea62a579d32886f8947e86e6726be808e8f9927028ac50e9a884f1a9dda441",
    "gram": "f6f59946088be4663fbe0f082bb2026b47dad6105d0b7027fd01768ad7ef0dae",
    "ideals": "46882d9782f21cc00e97ca409c995cb3c857d82fbe9c4dc5ee1ca02021ed1525",
    "plucker": "e6e37c376371593ac5699f10377d88613432e8ec998dcd98ef21c13b96f89d98",
    "quadric": "c93b0296e60eff78578d3795e29ee25433f5c8c3ad5a31d2310170e40c3b060d",
    "schubert mul": "1da2cba84a5115e69e886b163805bcacd973892d87e677cb931e529bde1d3a83",
    "ss": "75b415c63525e68b1a7810cbf25446aeca04c906ea232af156200bb9e30a53aa",
    "tateiso": "6a961f337a40d9ddfff86f53bdd19767d219b94d75afd969c6c3c872614cca47",
    "verify all": "43fbbe48afa7e0074d1fea097bb385cb382fee53922deb7a7af8ce4c016850df",
    "witt": "f1036473bbfe173a2c5c36cc77c242088b8a12bf67e604af75940d03c76e4946",
    "xring mul-h": "3e124af56090e37f5ae5e9dd14a2d676e55673a868c11a77ff831b94a18693ec",
}


def error_line(stderr: str):
    lines = [line for line in stderr.splitlines() if line.startswith("Error: ")]
    return lines[0] if lines else None


@pytest.mark.parametrize("command", sorted(CASES))
def test_cli_outputs_match_golden(command):
    stdouts = []
    for args, exit_code, error in CASES[command]:
        for extra in ((), ("--json",)):
            result = runner().invoke(main, [*args, *extra])
            assert result.exit_code == exit_code, (args, extra, result.output)
            assert error_line(result.stderr) == error, (args, extra)
            stdouts.append(result.stdout)
    text = json.dumps(stdouts, sort_keys=True, separators=(",", ":"))
    assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN_SHA256[command]
