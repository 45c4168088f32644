"""Command-line driver: reports, exit codes, determinism."""

import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from chowkit import schubert, tate
from chowkit.schubert import GrChowClass, box_partitions, format_partition
from chowkit.tate import D2_MAX_DEGREE, GL_PATTERN_MAX_DEGREE, D2Matrix

from cli_runner import invoke


def run(*args):
    return invoke(args)


def run_json(*args):
    result = run(*args, "--json")
    assert result.output.strip(), result.output
    return result, json.loads(result.output)


def test_gram_command():
    result, doc = run_json("gram")
    assert result.exit_code == 0
    assert doc["status"] == "pass"
    assert doc["payload"]["matrix"] == [[1, 1, 0], [1, 0, 1], [0, 1, 1]]
    assert doc["payload"]["det"] == -2


def test_ss_weight_one():
    result, doc = run_json("ss", "--n", "3", "--weight", "1")
    assert result.exit_code == 0
    assert doc["payload"]["table"] == {"1": "Z"}


def test_ss_weight_three():
    result, doc = run_json("ss", "--n", "3", "--weight", "3")
    assert result.exit_code == 0
    assert doc["payload"]["table"] == {
        "1": "H^{0,2}(F)", "2": "H^{1,2}(F)", "3": "H^{2,2}(F)",
        "4": "Z + (F*)^n", "5": "nZ",
    }



def test_ss_large_prime():
    # ss never builds the slices above weight 3, so n = 97 returns at once.
    result, doc = run_json("ss", "--n", "97", "--weight", "3")
    assert result.exit_code == 0
    assert doc["payload"]["table"] == run_json("ss", "--n", "3", "--weight", "3")[1]["payload"]["table"]


def test_large_prime_degree():
    # 2^61 - 1 is prime: Miller-Rabin decides it at once, and ss tries no
    # multi-index longer than its weight allows.
    prime = str(2 ** 61 - 1)
    result, doc = run_json("ss", "--n", prime, "--weight", "3")
    assert result.exit_code == 0
    assert doc["payload"]["table"] == run_json("ss", "--n", "3", "--weight", "3")[1]["payload"]["table"]
    result, doc = run_json("tateiso", "--invert", prime)
    assert result.exit_code == 1
    assert doc["payload"]["invertible"] is False


def test_primality_above_the_proven_bound_is_a_usage_error():
    # 2^89 - 1 is prime, but above the bound the 13 bases prove nothing.
    for args in (("ss", "--n", str(2 ** 89 - 1), "--weight", "1"),
                 ("tateiso", "--invert", str(2 ** 89 - 1))):
        result = run(*args)
        assert result.exit_code == 2
        assert "Error: primality is decided only below 3317044064679887385961981" \
            in result.output.splitlines()


def test_schubert_mul_xring():
    result, doc = run_json("schubert", "mul", "(2,2)", "(1)", "--xring")
    assert result.exit_code == 0
    assert doc["payload"]["result"] == "(2,2,2) + 2(3,2,1) + (3,3)"
    assert doc["payload"]["codim"] == 5


def test_schubert_mul_plain():
    result, doc = run_json("schubert", "mul", "(2,1)", "(2,1)")
    assert result.exit_code == 0
    assert doc["payload"]["codim"] == 6


def test_xring_mul_h():
    result, doc = run_json("xring", "mul-h", "(2,2)")
    assert result.exit_code == 0
    assert doc["payload"]["result"] == "(2,2,2) + 2(3,2,1) + (3,3)"


def test_verify_all_passes():
    result = run("verify", "all")
    assert result.exit_code == 0
    assert "result: pass (12/12 passed)" in result.output


def test_verify_all_deterministic():
    first = run("verify", "all", "--json")
    second = run("verify", "all", "--json")
    assert first.output == second.output
    doc = json.loads(first.output)
    assert doc["status"] == "pass"
    assert [c["status"] for c in doc["payload"]["checks"]] == ["pass"] * 12


def test_every_json_subcommand_emits_one_document():
    invocations = [
        ("gram",), ("alphas",), ("bases",), ("quadric",),
        ("tateiso", "--invert", "2"),
        ("glmotive", "--n", "3"),
        ("d2", "--n", "3", "--q", "2"),
        ("ss", "--n", "3", "--weight", "2"),
        ("plucker", "--a", "2", "--b", "3"),
        ("charts", "--degree", "3"),
        ("ideals", "--n", "3", "--q", "2", "--k", "2"),
        ("witt", "--form", "1,-2,-3,6,-1"),
        ("schubert", "mul", "(1)", "(1)"),
        ("xring", "mul-h", "(1)"),
    ]
    for args in invocations:
        result, doc = run_json(*args)
        assert result.exit_code == 0, (args, result.output)
        assert set(doc) == {"command", "inputs", "status", "payload"}


def test_tateiso_fails_over_z():
    result = run("tateiso")
    assert result.exit_code == 1
    assert "[fail]" in result.output


def test_usage_errors_exit_two():
    assert run("d2", "--n", "4", "--q", "1").exit_code == 2
    assert run("ss", "--n", "3", "--weight", "9").exit_code == 2
    assert run("witt", "--form", "nonsense").exit_code == 2
    assert run("schubert", "mul", "(2,1)", "(2,1)", "--xring").exit_code == 2
    assert run("xring", "mul-h", "(3,2)").exit_code == 2
    assert run("nonexistent").exit_code == 2


@pytest.mark.parametrize("args", [(), ("verify",)])
def test_group_without_a_subcommand_is_a_usage_error(args):
    # The help goes to stderr with no `Error:` line, so the manifest cannot pin it.
    result = run(*args)
    assert result.exit_code == 2
    assert isinstance(result.exception, SystemExit)
    assert result.stdout_bytes == b""
    assert "Traceback" not in result.output


@pytest.mark.parametrize("args", [("--help",), ("verify", "--help"), ("d2", "--help")])
def test_help_exits_zero_on_stdout(args):
    # The stream and the exit code; golden/cli.jsonl pins the text of every help.
    result = run(*args)
    assert result.exit_code == 0
    assert result.stdout_bytes.decode().startswith("Usage:")
    assert result.stderr == ""


def test_startup_imports_only_the_standard_library():
    # -S keeps site, and the .pth files it runs, from importing modules (typing
    # among them) that would hide a regression.
    src = Path(__file__).resolve().parent.parent / "src"
    code = "import sys, chowkit.cli; print(*sorted({m.split('.')[0] for m in sys.modules}))"
    done = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(src)}, timeout=60)
    assert done.returncode == 0, done.stderr
    loaded = set(done.stdout.split())
    assert loaded.isdisjoint({"click", "dataclasses", "inspect", "typing"}), loaded
    assert loaded - set(sys.stdlib_module_names) == {"__main__", "chowkit"}


def test_closed_stdout_exits_one_without_a_traceback():
    # As `chowkit ... | head` does; the 0.2 MB report cannot fit in a pipe buffer.
    src = Path(__file__).resolve().parent.parent / "src"
    with subprocess.Popen([sys.executable, "-m", "chowkit.cli", "glmotive", "--n", "40", "--json"],
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          env={**os.environ, "PYTHONPATH": str(src)}) as proc:
        proc.stdout.close()
        stderr = proc.stderr.read()
    assert proc.returncode == 1
    assert stderr == b""


def test_charts_reports_verbatim_equation():
    _, doc = run_json("charts", "--degree", "3")
    rows = {tuple(r["pivots"]): r for r in doc["payload"]["charts"]}
    assert rows[(1, 2, 4)]["kind"] == "graph"
    assert rows[(1, 2, 4)]["pivot_variable"] == "a33"
    assert len(rows) == 20


def test_charts_refuses_a_chart_of_no_smooth_shape(monkeypatch):
    # A chart outside both smooth shapes raises in classify_chart, so `charts`
    # ends as a usage error instead of printing a report.
    from chowkit import geometry

    equation = geometry.chart_equation

    def edited(pivots):
        eq = equation(pivots)
        return eq * eq if tuple(pivots) == (1, 2, 4) else eq

    monkeypatch.setattr(geometry, "chart_equation", edited)
    result = run("charts", "--degree", "3")
    assert result.exit_code == 2
    assert result.stdout_bytes == b""
    assert result.stderr.endswith("Error: chart (1, 2, 4) matches no smooth pattern\n")


def failed_battery(monkeypatch, layer, name, edited):
    """The `verify all --json` document with <name> of the layer module replaced
    by edited, after checking that the text run fails as well."""
    monkeypatch.setattr(layer, name, edited)
    assert run("verify", "all").exit_code == 1
    result, doc = run_json("verify", "all")
    assert result.exit_code == 1
    assert doc["status"] == "fail"
    return doc["payload"]


def test_pieri_schur_agreement_fails_when_the_routes_disagree(monkeypatch):
    schur_product = schubert.schur_product
    spoiled = GrChowClass.schubert(3, 6, (2, 1))

    def edited(first, second):
        product = schur_product(first, second)
        return product + product if second == spoiled else product

    payload = failed_battery(monkeypatch, schubert, "schur_product", edited)
    assert payload["failed"] == ["pieri_schur_agreement"]
    check = next(c for c in payload["checks"] if c["name"] == "pieri_schur_agreement")
    assert check["detail"]["disagreements"] == ["(2,1)"]


def test_d2_oracle_fails_when_the_routes_disagree(monkeypatch):
    derive = tate.d2_matrix_from_chern

    def edited(n, q):
        matrix = derive(n, q)
        if (n, q) != (3, 2):
            return matrix
        return D2Matrix(n, q, matrix.row_indices, matrix.col_indices, ())

    payload = failed_battery(monkeypatch, tate, "d2_matrix_from_chern", edited)
    assert payload["failed"] == ["d2_oracle"]
    check = next(c for c in payload["checks"] if c["name"] == "d2_oracle")
    assert check["detail"]["counterexample"] == {"n": 3, "q": 2}


def test_ideals_counts():
    _, doc = run_json("ideals", "--n", "3", "--q", "2", "--k", "1")
    assert doc["payload"]["count"] == 7
    assert doc["payload"]["gaussian_binomial"] == 7
    assert doc["status"] == "pass"


def test_alphas_report():
    result, doc = run_json("alphas")
    assert result.exit_code == 0
    assert doc["payload"]["steps"]["1"]["holds"] is True
    assert len(doc["payload"]["cycles"]) == 5


def test_more_usage_errors_exit_two():
    assert run("xring", "mul-h", "(3,3,3)").exit_code == 2
    assert run("schubert", "mul", "(4)", "(1)").exit_code == 2
    assert run("glmotive", "--n", "0").exit_code == 2
    assert run("witt", "--form", "1,0,-1").exit_code == 2
    assert run("plucker", "--a", "0", "--b", "3").exit_code == 2


@pytest.mark.parametrize("args, message", [
    # The degree-5 check comes before the box check: (5) escapes the box too.
    (("xring", "mul-h", "(5)"), "labels of degree 5 do not occur in the section ring"),
    (("schubert", "mul", "(4,1)", "(1)", "--xring"),
     "labels of degree 5 do not occur in the section ring"),
    (("xring", "mul-h", "(4)"), "partition (4,) escapes the 3x3 box"),
])
def test_section_label_errors_come_in_order(args, message):
    result = run(*args)
    assert result.exit_code == 2
    assert f"Error: {message}" in result.output.splitlines()


@pytest.mark.parametrize("bad", ["0", "4", "-3"])
def test_tateiso_nonprime_invert_is_a_usage_error(bad):
    result = run("tateiso", "--invert", "2", "--invert", bad)
    assert result.exit_code == 2, result.exception
    assert isinstance(result.exception, SystemExit)
    assert "Traceback" not in result.output
    assert f"{bad} is not prime" in result.output


@pytest.mark.parametrize("inverted, status, digest", [
    ((), 1, "96766796d5069649e0539c1ee801c319f3d5dff5261d6befc82cc7882abb7c78"),
    (("2",), 0, "2b4679b721e481df1569959a7eb2480109ab29230fd5ff64c80e54c31d796125"),
    (("3",), 1, "645eb0b6b39f192402da4df242c29e4ba00c7010470ccf6c05cfc8a1e90f12da"),
])
def test_tateiso_json_bytes_are_pinned(inverted, status, digest):
    args = [arg for p in inverted for arg in ("--invert", p)]
    result = run("tateiso", *args, "--json")
    assert result.exit_code == status
    assert hashlib.sha256(result.stdout_bytes).hexdigest() == digest


# Partition arguments as a user might type them: valid, outside the 3x3 box,
# empty, with negative or increasing parts, and malformed text.
partition_texts = st.one_of(
    st.sampled_from(box_partitions(3, 3)).map(format_partition),
    st.lists(st.integers(min_value=-3, max_value=12), max_size=5).map(
        lambda parts: "(" + ",".join(map(str, parts)) + ")"),
    st.integers(min_value=10, max_value=10 ** 30).map(lambda n: f"({n},1)"),
    st.text(alphabet="()0123456789,- x", max_size=8),
)


@settings(max_examples=200, deadline=None)
@given(partition_texts, partition_texts, st.booleans())
def test_generated_partitions_exit_cleanly(first, second, xring):
    for args in (["schubert", "mul", first, second] + (["--xring"] if xring else []),
                 ["xring", "mul-h", first]):
        result = run(*args)
        assert result.exit_code in (0, 2), (args, result.output, result.exception)
        assert result.exception is None or isinstance(result.exception, SystemExit), args
        assert "Traceback" not in result.output


def test_glmotive_degree_forty():
    result, doc = run_json("glmotive", "--n", "40")
    assert result.exit_code == 0
    assert doc["payload"]["total"] == 2 ** 40


def int_text(low, high):
    """An integer option value in [low, high], or text that is no integer."""
    return st.one_of(st.integers(min_value=low, max_value=high).map(str),
                     st.sampled_from(["", "x", "1.5", " 3", "0x7", "--"]))


# Generated arguments for every other subcommand, bounded where the input
# sets the size of the work: d2 degrees to 6 past their bound and glmotive
# degrees to 20 past theirs (a usage error above each), witt forms of
# dimension at most 3, and integers of at most 10^6 except the primes to
# invert and the ss degree, which reach 10^24 (primality is decided by
# Miller-Rabin).
subcommand_args = st.one_of(
    st.lists(int_text(-50, 10 ** 24), max_size=3).map(
        lambda ps: ["tateiso"] + [arg for p in ps for arg in ("--invert", p)]),
    st.tuples(int_text(-3, GL_PATTERN_MAX_DEGREE + 20)).map(lambda a: ["glmotive", "--n", *a]),
    st.tuples(int_text(-3, D2_MAX_DEGREE + 6), int_text(-3, 30)).map(
        lambda a: ["d2", "--n", a[0], "--q", a[1]]),
    st.tuples(int_text(-3, 10 ** 24), int_text(-3, 6)).map(
        lambda a: ["ss", "--n", a[0], "--weight", a[1]]),
    st.tuples(int_text(-10 ** 6, 10 ** 6), int_text(-10 ** 6, 10 ** 6)).map(
        lambda a: ["plucker", "--a", a[0], "--b", a[1]]),
    st.sampled_from(["1", "2", "3", "4", "x", ""]).map(lambda d: ["charts", "--degree", d]),
    st.tuples(int_text(-2, 4), int_text(-2, 10 ** 4), int_text(-2, 4)).map(
        lambda a: ["ideals", "--n", a[0], "--q", a[1], "--k", a[2]]),
    st.one_of(
        st.lists(st.integers(min_value=-30, max_value=30), max_size=3).map(
            lambda form: ",".join(map(str, form))),
        st.text(alphabet="0123456789,- x", max_size=8),
    ).map(lambda form: ["witt", "--form", form]),
)


@settings(max_examples=300, deadline=None)
@given(subcommand_args, st.booleans())
def test_generated_subcommand_inputs_exit_cleanly(args, as_json):
    args = args + (["--json"] if as_json else [])
    start = time.perf_counter()
    result = run(*args)
    elapsed = time.perf_counter() - start
    assert result.exit_code in (0, 1, 2), (args, result.output, result.exception)
    assert result.exception is None or isinstance(result.exception, SystemExit), args
    assert "Traceback" not in result.output
    assert elapsed < 2, (args, elapsed)
