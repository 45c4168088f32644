"""Golden `chowkit ss` outputs: text and --json bytes, pinned by sha256.

Any change to how the spectral groups are represented must print the same
tables.  Each prime n is one group: its sha256 runs over canonical JSON of the
exit codes and outputs for weights 1..3, text then --json, so a failing case
names the prime that changed.
"""

import hashlib
import json

import pytest
from click.testing import CliRunner

from chowkit.cli import main

WEIGHTS = (1, 2, 3)


def outputs(n):
    out = []
    for weight in WEIGHTS:
        for extra in ((), ("--json",)):
            result = CliRunner().invoke(main, ["ss", "--n", str(n), "--weight", str(weight), *extra])
            out.append({"weight": weight, "json": bool(extra),
                        "exit": result.exit_code, "output": result.output})
    return out


def digest(cases) -> str:
    text = json.dumps(cases, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


GOLDEN_SHA256 = {
    2: "8abc4af172607be99e5ee302e8926ffe4df0f25b1df9b6c004a7a29a2b799e0d",
    3: "635a925980ab476db8db7db59b91145bdda23adad3b57e98d2df5a50caec4908",
    5: "afbc81a27e0a87ceb823fc1d71042cec9d8e8b402136e81028dad6b577272ec5",
    7: "aabc84c27b7598f2a98b821f4865e2229dfd1a360043e1fc9e6b8976b9662aa5",
    97: "c3472a2e6970eab2ac03211f164d46d14cff7318de4c2e0e9071fdde3d821ee0",
}


@pytest.mark.parametrize("n", sorted(GOLDEN_SHA256))
def test_ss_outputs_match_golden(n):
    cases = outputs(n)
    assert all(case["exit"] == 0 for case in cases)
    assert digest(cases) == GOLDEN_SHA256[n]
