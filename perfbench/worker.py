"""Run one workload in this (fresh) process and print its raw results.

One closed-loop client: each op is `padicdyn.cli.main(argv)` called
in-process with stdout and stderr captured in memory; only that call is
timed.  The output check runs after it, outside the timed region.  The
loop runs whole rounds of ops until `--seconds` of wall time have passed
(and, untraced, at least MIN_OPS ops), so every run has the same mix.
Untraced, it also times the fixed unit of `speed.py` before an op
whenever CAL_EVERY_S has passed since the last sample, and reports each
op's speed scale next to its wall time.  The worker pins itself to one
CPU, where the samples run too; an op that starts a process pool gets
every CPU back for the length of the call.

With --trace 1 every op runs twice, untraced and traced, alternating
which goes first, and the two outputs must match; sweep ops then use
one worker, because spans recorded in pool workers would be lost.

Usage: python3 perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1
The last stdout line is a JSON record that perfbench/run.py reads.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import random
import resource
import statistics
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import padicdyn.cli  # noqa: E402

import speed  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer  # noqa: E402

FAILURES_SHOWN = 5
# untraced runs go on past the window until this many ops, so that at
# least 10 latency samples lie above the 90th percentile
MIN_OPS = 100
CAL_EVERY_S = 0.1


def call(argv: list[str]) -> tuple[int | None, str, str, int]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter_ns()
        try:
            rc = padicdyn.cli.main(argv)  # looked up per call: tracing patches it
        except SystemExit as e:  # argparse rejections exit through here
            rc = e.code if isinstance(e.code, int) else 2
        except Exception:
            rc = None
            err.write(traceback.format_exc())
        t1 = time.perf_counter_ns()
    return rc, out.getvalue(), err.getvalue(), t1 - t0


def untimed_cli(argv: list[str]) -> tuple[int | None, str, str]:
    return call(argv)[:3]


def traced_call(tracer: Tracer, op_id: int, argv: list[str]):
    tracer.op_id = op_id
    tracer.install()
    try:
        return call(argv)
    finally:
        tracer.uninstall()


def check(op: workloads.Op, rc, out: str, err: str) -> str | None:
    if rc is None:
        return "exception: " + err.strip().splitlines()[-1]
    try:
        return op.check(rc, out, err, untimed_cli)
    except Exception as e:  # a malformed record fails the op, not the run
        return f"check raised {e!r}"


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    every_cpu = speed.pin_to_one_cpu()
    pinned = os.sched_getaffinity(0)
    rng = random.Random(f"{workload}:{seed}")
    threads = 1 if trace else 2
    rounds = workloads.GENERATORS[workload](rng, threads)
    tracer = Tracer() if trace else None
    latencies, failures = [], []
    cal_ms, cal_index = [], []  # speed samples; per op, the latest before it
    next_cal = 0.0
    items = stdout_bytes = residues = plain_ns = traced_ns = 0
    primes, degrees, broken = Counter(), Counter(), Counter()
    verdicts = minimal = 0
    deadline = time.perf_counter() + seconds
    min_ops = 0 if trace else MIN_OPS
    n = 0
    pending = []
    while pending or time.perf_counter() < deadline or n < min_ops:
        if not pending:
            pending = next(rounds)[::-1]
        op = pending.pop()
        if tracer is None and time.perf_counter() >= next_cal:
            cal_ms.append(speed.sample_ms())
            next_cal = time.perf_counter() + CAL_EVERY_S
        cal_index.append(len(cal_ms) - 1)
        if tracer is not None and n % 2:
            traced = traced_call(tracer, n, op.argv)
        if op.all_cpus:
            os.sched_setaffinity(0, every_cpu)
        rc, out, err, ns = call(op.argv)
        if op.all_cpus:
            os.sched_setaffinity(0, pinned)
        reason = check(op, rc, out, err)
        if tracer is not None:
            if n % 2 == 0:
                traced = traced_call(tracer, n, op.argv)
            if traced[:3] != (rc, out, err):
                reason = reason or "traced output differs from untraced output"
            plain_ns += ns
            traced_ns += traced[3]
        if reason is not None:
            failures.append(f"{' '.join(op.argv)}: {reason}")
        latencies.append(ns)
        items += op.items
        stdout_bytes += len(out)
        props = op.props
        primes[props["prime"]] += 1
        degrees[props["degree"]] += 1
        residues += props["residues"]
        if "minimal" in props:
            verdicts += 1
            minimal += props["minimal"]
            broken[str(props["first_broken"])] += 1
        n += 1

    peak_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                  resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    result = {
        "workload": workload,
        "seed": seed,
        "attempted": n,
        "failed": len(failures),
        "failures": failures[:FAILURES_SHOWN],
        "latencies_ns": latencies,
        "speed_scales": [speed.scale(cal_ms, i) for i in cal_index] if cal_ms else None,
        "speed_unit_ms": statistics.median(cal_ms) if cal_ms else None,
        "items": items,
        "peak_rss_kb": peak_kb,
        "inputs": {
            "minimal_share": minimal / verdicts if verdicts else None,
            "first_broken_level": dict(sorted(broken.items())),
            "primes": dict(sorted(primes.items())),
            "degrees": dict(sorted(degrees.items())),
            "table_entries": residues,
            "stdout_bytes": stdout_bytes,
        },
    }
    if tracer is not None:
        result["per_layer"], result["trace"] = tracer.summarize(
            n, stdout_bytes, traced_ns / plain_ns)
        diag = result["trace"]
        if diag["self_time_closure_max_error_ns"] or diag["stray_root_spans"]:
            result["failed"] += 1
            result["failures"].append("per-layer self times do not add up to op durations")
        if workload == "sweep-boxes":
            result["trace"]["note"] = ("sweep ops ran on 1 worker in both passes: "
                                       "spans recorded in pool workers would be lost")
    return result


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(workloads.GENERATORS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    print(json.dumps(run(args.workload, args.seed, args.seconds, bool(args.trace))))


if __name__ == "__main__":
    main()
