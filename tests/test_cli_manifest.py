"""Every pinned `chowkit` run: its exit code, its `Error:` line and its stdout bytes.

`golden/cli.jsonl` holds one run per line:
{"args": [...], "exit": int, "error": "Error: ..." | null, "sha256": stdout digest}.
Only a usage error (exit 2) prints an `Error:` line.  The rest of stderr, the
usage and help text around it, is not pinned.

Under pytest each line replays in process through `cli_runner.invoke`.  Run as
a script, `python tests/test_cli_manifest.py` replays each line against the
installed `chowkit` console script, one process per run.

A deliberate output change edits its one line, with the digest taken from
`chowkit <args> | sha256sum`.
"""

import hashlib
import json
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from cli_runner import invoke

MANIFEST = Path(__file__).parent / "golden" / "cli.jsonl"
RUNS = [json.loads(line) for line in MANIFEST.read_text().splitlines()]
TIMEOUT_S = 5


def outcome(exit_code: int, stdout: bytes, stderr: str) -> dict:
    errors = [line for line in stderr.splitlines() if line.startswith("Error: ")]
    return {"exit": exit_code, "error": errors[0] if errors else None,
            "sha256": hashlib.sha256(stdout).hexdigest()}


def pinned(run: dict) -> dict:
    return {key: run[key] for key in ("exit", "error", "sha256")}


def test_manifest_is_well_formed():
    args = [tuple(run["args"]) for run in RUNS]
    assert len(set(args)) == len(args), "an argument list is pinned twice"
    for run in RUNS:
        assert set(run) == {"args", "exit", "error", "sha256"}, run
        assert re.fullmatch(r"[0-9a-f]{64}", run["sha256"]), run
        assert (run["error"] is not None) == (run["exit"] == 2), run


@pytest.mark.parametrize("run", RUNS, ids=lambda run: shlex.join(run["args"]))
def test_pinned_run(run):
    result = invoke(run["args"])
    assert outcome(result.exit_code, result.stdout_bytes, result.stderr) == pinned(run)


def replay_installed() -> int:
    """Replay every run against the installed console script; 1 on any mismatch."""
    matches = 0
    for run in RUNS:
        try:
            done = subprocess.run(["chowkit", *run["args"]], capture_output=True,
                                  timeout=TIMEOUT_S)
            seen = outcome(done.returncode, done.stdout, done.stderr.decode())
        except subprocess.TimeoutExpired:
            seen = f"no exit within {TIMEOUT_S} s"
        if seen == pinned(run):
            matches += 1
        else:
            print(f"chowkit {shlex.join(run['args'])}: pinned {pinned(run)}, got {seen}")
    print(f"{matches}/{len(RUNS)} pinned runs match")
    return 0 if matches == len(RUNS) else 1


if __name__ == "__main__":
    sys.exit(replay_installed())
