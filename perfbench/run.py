"""chowkit benchmark: run one workload from a seed and print its metrics.

    python3 perfbench/run.py --workload W --seed N --seconds T --trace 0|1
    python3 perfbench/run.py --selfcheck

Run it from the repository root; it puts ``src`` on PYTHONPATH itself.

--trace 0 measures the end-to-end metrics: set-up time (median of several
fresh interpreters importing chowkit), then whole rounds of the workload in
a fresh worker process for T seconds.  --trace 1 instead runs a fixed number
of rounds twice per repeat, once plain and once with spans around every
listed chowkit function, and reports the per-layer metrics and the tracing
overhead.  Either way the last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.

--selfcheck runs every workload on a handful of operations, both ways, and
fails unless each output carries every metric BENCHMARK.json names, with
its unit.  Exit codes: 0 on success, 1 on a failed self-check or worker,
2 when the chowkit sources are missing.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from spec import BY_HAND, END_TO_END, PER_LAYER, WORKLOADS, per_layer_value, unit_of

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench"          # span files of traced runs

SETUP_STARTS = 4                        # fresh interpreters before and after the timed run
WORKER_TIMEOUT_S = 150
# Traced run: (plain/traced pairs, rounds per worker).  Symbolic takes two
# rounds so the warm second round, where the Schur cache pays off, shows.
TRACE_PLAN = {"certify": (3, 1), "symbolic": (3, 2), "lattice": (3, 1), "forms": (3, 1)}


class WorkerError(RuntimeError):
    pass


def _env():
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _run(cmd, timeout):
    """Run cmd in its own process group; kill the whole group on timeout."""
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=_env(), cwd=ROOT,
                            text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except BaseException:
        with contextlib.suppress(ProcessLookupError):
            os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    return proc.returncode, out


def time_setup(module: str, starts: int) -> list:
    """Wall times of fresh interpreters that import module."""
    cmd = [sys.executable, "-c", f"import {module}"]
    times = []
    for _ in range(starts):
        t0 = time.perf_counter()
        code, _ = _run(cmd, 60)
        times.append(time.perf_counter() - t0)
        if code:
            raise WorkerError(f"import {module} failed")
    return times


def run_worker(workload, seed, mode, seconds=0.0, rounds=0, limit=None, spans=None):
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--mode", mode]
    if seconds:
        cmd += ["--seconds", str(seconds)]
    if rounds:
        cmd += ["--rounds", str(rounds)]
    if limit:
        cmd += ["--limit", str(limit)]
    if spans:
        cmd += ["--spans", str(spans)]
    code, out = _run(cmd, WORKER_TIMEOUT_S)
    lines = out.strip().splitlines()
    if code or not lines:
        raise WorkerError(f"{workload} worker exited {code}")
    return json.loads(lines[-1])


def _metric(value, unit):
    return {"value": value, "unit": unit}


def measured(workload, seed, seconds, limit=None):
    # Set-up is the median of fresh starts taken half before and half after
    # the timed run, so that one slow stretch of the host does not set it.
    module = "chowkit.cli" if workload == "certify" else "chowkit"
    time_setup(module, 1)               # compiles bytecode, as an installed copy has
    starts = time_setup(module, SETUP_STARTS)
    if limit:
        res = run_worker(workload, seed, "measure", rounds=1, limit=limit)
    else:
        res = run_worker(workload, seed, "measure", seconds=seconds)
    starts += time_setup(module, SETUP_STARTS)
    values = {"ops_per_s": res["ops_per_s"], "op_p50_ms": res["op_p50_ms"],
              "peak_rss_mb": res["peak_rss_mb"], "setup_s": statistics.median(starts)}
    return {"correct": res["correct"], "attempted": res["attempted"], "failed": res["failed"],
            "metrics": {name: _metric(values[name], unit) for name, unit in END_TO_END.items()}}


def traced(workload, seed, limit=None):
    repeats, rounds = TRACE_PLAN[workload]
    OUT_DIR.mkdir(exist_ok=True)
    plain, spanned = [], []
    spans = OUT_DIR / f"spans-{workload}.tsv"      # the last traced pass's spans
    for _ in range(repeats):
        plain.append(run_worker(workload, seed, "plain", rounds=rounds, limit=limit))
        spanned.append(run_worker(workload, seed, "traced", rounds=rounds, limit=limit,
                                  spans=spans))
    base = statistics.median(r["wall_s"] for r in plain) * 1e3
    with_spans = statistics.median(r["wall_s"] for r in spanned) * 1e3
    metrics = {}
    for name in PER_LAYER:
        if name == "trace.overhead_ms":
            value = with_spans - base
        elif name == "trace.overhead_pct":
            value = 100.0 * (with_spans - base) / base
        else:
            value = statistics.median(
                per_layer_value(name, r["layers"], r["counters"]) for r in spanned)
        metrics[name] = _metric(value, unit_of(name))
    runs = plain + spanned
    return {"correct": all(r["correct"] for r in runs),
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "metrics": metrics}


def selfcheck() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    want = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
            1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    errors = []
    if [w["name"] for w in spec["workloads"]] != list(WORKLOADS):
        errors.append("BENCHMARK.json workloads differ from spec.WORKLOADS")
    if want[0] != END_TO_END or want[1] != {m: unit_of(m) for m in PER_LAYER}:
        errors.append("BENCHMARK.json metrics differ from spec.py")
    for workload in WORKLOADS + BY_HAND:
        for trace in (0, 1):
            result = traced(workload, 1, limit=4) if trace else \
                measured(workload, 1, 0, limit=4)
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            if got != want[trace]:
                errors.append(f"{workload} --trace {trace}: metrics or units differ")
            if not result["correct"] or result["attempted"] < 1:
                errors.append(f"{workload} --trace {trace}: incorrect or empty run")
            print(f"selfcheck: {workload} --trace {trace}: {result['attempted']} operations",
                  file=sys.stderr)
    for error in errors:
        print(f"selfcheck: {error}", file=sys.stderr)
    print("selfcheck: " + ("FAILED" if errors else "ok"))
    return 1 if errors else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS + BY_HAND)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selfcheck", action="store_true")
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "chowkit" / "__init__.py").is_file():
        print(f"perfbench: no chowkit sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # On SIGTERM, unwind through _run so the worker's process group is killed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        if args.selfcheck:
            return selfcheck()
        if not args.workload:
            ap.error("--workload is required")
        if args.trace:
            result = traced(args.workload, args.seed)
        else:
            result = measured(args.workload, args.seed, args.seconds)
    except (WorkerError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
