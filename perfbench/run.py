"""padicdyn benchmark: one workload, end-to-end or traced.

Usage (from the repository root):
    python3 perfbench/run.py --workload verdict-small --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20   # every workload

--trace 0 prints the end-to-end metrics of BENCHMARK.json: throughput,
median and p90 latency of one CLI invocation, peak RSS of the workload
process (pool workers included), and setup_s, the median wall time of
15 fresh interpreters importing padicdyn.cli.  Every time is scaled to
a fixed machine speed (perfbench/speed.py); the report also prints the
raw wall-time figures.  --trace 1 prints the per-layer metrics from the
traced run instead; they are not scaled.  The workload itself runs
in a fresh child process (perfbench/worker.py); its failed ops over
attempted ops is the error rate, reported as `failed` / `attempted`.
The last stdout line is the JSON result; lines above it are for people.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
COLD_STARTS = (8, 7)  # before and after the workload, so they span the run
WORKER_GRACE_S = 150
SPEED_SAMPLES = 5  # before each cold start

KNOWN_DEFECTS = (
    "argv pass --coeffs=<list>: argparse rejects '--coeffs -1,2' as an unknown flag",
    "stream checks the full cycle by brute force at its level, whatever --count is",
    "conjugacy --nmax builds every level's map table twice (tables_per_level 2.0)",
    "analyze builds the decision-level table twice for a non-minimal map",
)


def cold_starts(count: int) -> list[tuple[float, float]]:
    """Wall times of fresh interpreters importing padicdyn.cli, with the
    bytecode cache in use as after an install, whatever the caller's
    PYTHONDONTWRITEBYTECODE says, each with the speed scale of the
    samples taken just before it.  The starts and samples run pinned to
    one CPU."""
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    cmd = [sys.executable, "-c", "import padicdyn.cli"]
    times = []
    allowed = speed.pin_to_one_cpu()
    try:
        for _ in range(count):
            samples = [speed.sample_ms() for _ in range(SPEED_SAMPLES)]
            t0 = time.perf_counter()
            # no timeout: with one, wait() polls in steps of up to 50 ms
            subprocess.run(cmd, env=env, cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
            times.append((time.perf_counter() - t0, speed.scale(samples, SPEED_SAMPLES // 2)))
    finally:
        os.sched_setaffinity(0, allowed)  # the worker must not inherit the pin
    return times


def run_worker(args, workload: str) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=args.seconds + WORKER_GRACE_S)
    if proc.returncode != 0:
        sys.exit(f"worker exited with {proc.returncode}")
    return json.loads(proc.stdout.splitlines()[-1])


def end_to_end(raw: dict, lat_ms: list[float], setup_s: float) -> dict:
    if len(lat_ms) >= 2:
        deciles = statistics.quantiles(lat_ms, n=10)
        p50, p90 = deciles[4], deciles[8]
    else:
        p50 = p90 = lat_ms[0]
    return {
        "items_per_s": raw["items"] / (sum(lat_ms) / 1e3),
        "op_p50_ms": p50,
        "op_p90_ms": p90,
        "peak_rss_mb": raw["peak_rss_kb"] / 1024,
        "setup_s": setup_s,
    }


def report(args, workload: str, spec: dict) -> dict:
    """Run one workload in a fresh worker, print its block and return
    its result record.  setup_s is the median of cold starts taken
    before and after the worker; the first one, which writes the
    bytecode cache, is not counted.  Times are scaled to the reference
    speed; the raw wall-time metrics are printed too."""
    if args.trace:
        raw = run_worker(args, workload)
        declared, values = spec["per_layer"], raw["per_layer"]
    else:
        starts = cold_starts(COLD_STARTS[0] + 1)[1:]
        raw = run_worker(args, workload)
        starts += cold_starts(COLD_STARTS[1])
        wall_ms = [ns / 1e6 for ns in raw["latencies_ns"]]
        scaled_ms = [t * k for t, k in zip(wall_ms, raw["speed_scales"])]
        wall = end_to_end(raw, wall_ms, statistics.median(t for t, _ in starts))
        declared = spec["end_to_end"]
        values = end_to_end(raw, scaled_ms, statistics.median(t * k for t, k in starts))
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}

    n = raw["attempted"]
    print(f"padicdyn benchmark  workload={workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print(f"  ops {n}, failed {raw['failed']}, error_rate {raw['failed'] / n:.6f} fraction, "
          f"samples above p90 {n - int(0.9 * n)}")
    for name, m in metrics.items():
        print(f"  {name:45s} {m['value']:>16.6f} {m['unit']}")
    if not args.trace:
        print(f"  speed unit {raw['speed_unit_ms']:.4f} ms (reference {speed.REFERENCE_MS} ms); "
              "wall times unscaled: " + ", ".join(f"{k} {v:.6g}" for k, v in wall.items()))
    for failure in raw["failures"]:
        print(f"  FAILED {failure}")
    print("  inputs " + json.dumps(raw["inputs"]))
    if args.trace:
        print("  trace " + json.dumps(raw["trace"]))
    return {"correct": raw["failed"] == 0, "attempted": n, "failed": raw["failed"],
            "metrics": metrics}


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    help="a workload of BENCHMARK.json, or 'all' to run each in turn")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (SRC / "padicdyn" / "cli.py").is_file():
        sys.exit(f"no padicdyn sources under {SRC}; run from a checkout of the repository")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names + ["all"]:
        sys.exit(f"unknown workload {args.workload!r}")

    chosen = names if args.workload == "all" else [args.workload]
    results = {w: report(args, w, spec) for w in chosen}
    for note in KNOWN_DEFECTS:
        print(f"  known defect: {note}")
    if len(chosen) == 1:
        print(json.dumps(results[chosen[0]]))
        return
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}.{k}": v for w, r in results.items() for k, v in r["metrics"].items()},
    }))


if __name__ == "__main__":
    main()
