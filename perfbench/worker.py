"""One pass over a workload in a fresh interpreter; run.py starts it.

    python3 perfbench/worker.py --workload W --seed N --mode M
                                (--seconds T | --rounds R) [--limit K] [--spans PATH]

Modes:
  measure  the timed run: whole rounds until T seconds have passed.  On
           certify each operation is a fresh ``python -m chowkit.cli verify
           all --json`` process.
  plain    R rounds, untimed apart from the total; certify runs the battery
           in-process.  The baseline the traced pass is compared with.
  traced   as plain, with every listed chowkit function wrapped in a span.

Peak memory is read before the oracles are imported.  The last line of
standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import signal
import statistics
import subprocess
import sys
import time
from array import array
from collections import Counter

import oracles
import workloads
from tracer import Tracer

# Per-operation deadlines.  The lattice one sits 20 times above the slowest
# Smith form that completed in 40,000 seeded 4x4 and 5x5 matrices (13 ms);
# the others only keep a hung operation from hanging the run.
DEADLINE_S = {"certify": 60.0, "symbolic": 30.0, "lattice": 0.25, "forms": 30.0}


class DeadlineExceeded(Exception):
    pass


def _on_alarm(signum, frame):
    raise DeadlineExceeded()


def _battery_process():
    cmd = [sys.executable, "-m", "chowkit.cli", "verify", "all", "--json"]
    proc = subprocess.run(cmd, capture_output=True, timeout=DEADLINE_S["certify"])
    return proc.returncode, proc.stdout.decode()


def _battery_in_process(cli, tracer=None):
    buf = io.StringIO()
    call = cli.main if tracer is None else tracer.wrap("cli.verify_all", cli.main)
    code = 0
    with contextlib.redirect_stdout(buf):
        try:
            call(["verify", "all", "--json"], standalone_mode=False)
        except SystemExit as stop:
            code = stop.code
    return code, buf.getvalue()


def run_ops(workload, rounds, seconds, max_rounds, limit, in_alarm):
    """Run whole rounds until max_rounds are done or seconds have passed.

    A timed run stops at the round boundary nearest to ``seconds``: after a
    round, it stops once half a mean round more would pass the mark.  Runs
    then measure ``seconds`` on average, however long a round is.

    Returns (seconds per operation, failures, first result per key, keys
    whose repeat differed, wall seconds).  An overrun counts at the
    deadline.  failures counts (name, status) pairs, with status "deadline"
    or the name of the exception raised.  Repeats of a key are compared
    with its first result on the spot and dropped, and each operation keeps
    only its time, so memory does not grow with the number of operations
    a run completes.
    """
    times, failures, first, mismatched = array("d"), Counter(), {}, []
    deadline = DEADLINE_S[workload]
    start = time.perf_counter()
    done = 0
    for ops in rounds:
        for op in ops[:limit]:
            t0 = time.perf_counter()
            if in_alarm:
                signal.setitimer(signal.ITIMER_REAL, deadline)
            try:
                result = op.run()
                status = "ok"
            except (DeadlineExceeded, subprocess.TimeoutExpired):
                status = "deadline"
            except Exception as exc:  # a fault in the program: count it failed
                status = type(exc).__name__
            finally:
                if in_alarm:
                    signal.setitimer(signal.ITIMER_REAL, 0)
            elapsed = time.perf_counter() - t0
            times.append(deadline if status == "deadline" else elapsed)
            if status != "ok":
                failures[op.key[0], status] += 1
                continue
            if op.key not in first:
                first[op.key] = result
            elif first[op.key] != result:
                mismatched.append(op.key)
        done += 1
        elapsed = time.perf_counter() - start
        if (max_rounds and done >= max_rounds) or \
                (seconds and elapsed + elapsed / done / 2 >= seconds):
            break
    return times, failures, first, mismatched, time.perf_counter() - start


def check(workload, first, mismatched):
    """Problems found by the oracles, plus the repeat mismatches."""
    checker = getattr(oracles, f"check_{workload}")
    problems = [f"result for {key[:2]} changed between repeats" for key in mismatched]
    values = {key: workloads.outcome(workload, key, result) for key, result in first.items()}
    for key, value in values.items():
        if workload == "symbolic" and key[0] == "schur":
            swapped = (key[0], key[1], key[3], key[2])
            problems += oracles.check_symbolic(key, value, values.get(swapped))
        else:
            problems += checker(key, value)
    return problems, values


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(DEADLINE_S))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=("measure", "plain", "traced"), required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--rounds", type=int, default=0)
    ap.add_argument("--limit", type=int, default=None)
    ap.add_argument("--spans", default=None)
    args = ap.parse_args(argv)
    if not args.seconds and not args.rounds:
        ap.error("give --seconds or --rounds")

    workload = args.workload
    counters = {}
    t0 = time.perf_counter()
    import chowkit
    if workload == "certify":
        import chowkit.cli
        counters["cli.startup_ms"] = (time.perf_counter() - t0) * 1e3
    tracer = Tracer() if args.mode == "traced" else None
    if tracer:
        tracer.install()

    if workload == "certify":
        if args.mode == "measure":
            battery = _battery_process
        else:
            def battery():
                return _battery_in_process(chowkit.cli, tracer)
        rounds = workloads.certify_rounds(battery)
    else:
        rounds = getattr(workloads, f"{workload}_rounds")(chowkit, args.seed)

    signal.signal(signal.SIGALRM, _on_alarm)
    in_alarm = not (workload == "certify" and args.mode == "measure")
    times, failures, first, mismatched, wall = run_ops(
        workload, rounds, args.seconds, args.rounds, args.limit, in_alarm)

    usage = resource.RUSAGE_CHILDREN if workload == "certify" and args.mode == "measure" \
        else resource.RUSAGE_SELF
    peak_rss_mb = resource.getrusage(usage).ru_maxrss / 1024.0

    layers = {}
    if tracer:
        tracer.uninstall()
        layers = tracer.summary()
        if args.spans:
            tracer.write(args.spans)
        if workload == "symbolic":
            info = chowkit.schubert.schur_poly.cache_info()
            counters["schubert.schur_poly.cache_misses"] = info.misses

    problems, values = check(workload, first, mismatched)
    failed = sum(failures.values())
    statuses = sorted({status for _, status in failures})
    if workload == "lattice":
        counters["exact.smith_normal_form.deadline_failures"] = \
            sum(n for (_, status), n in failures.items() if status == "deadline")
        bits = [oracles.transform_bits(v) for v in values.values()]
        counters["exact.smith_normal_form.transform_bits_max"] = max(bits, default=0)
    if workload == "forms":
        counters["geometry.witt_split.exhausted"] = sum(
            1 for key, v in values.items() if key[0] == "witt" and v["exhausted"])

    for problem in problems[:20]:
        print(f"perfbench: {workload}: {problem}", file=sys.stderr)
    for status in statuses:
        print(f"perfbench: {workload}: failed operations ({status}): "
              f"{sorted(name for name, s in failures if s == status)}", file=sys.stderr)
    print(json.dumps({
        "workload": workload,
        "correct": not problems,
        "attempted": len(times),
        "failed": failed,
        "wall_s": wall,
        "ops_per_s": (len(times) - failed) / wall,
        "op_p50_ms": statistics.median(times) * 1e3,
        "peak_rss_mb": peak_rss_mb,
        "layers": layers,
        "counters": counters,
    }))


if __name__ == "__main__":
    main()
