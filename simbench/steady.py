#!/usr/bin/env python3
"""Steadiness mode for the simulator benchmark.

Runs every workload in two sets of runs and prints, per set, each
end-to-end metric of BENCHMARK.json with its median and quartiles. Both
sets use seeds 1..N, one run per seed, at the benchmark's run_seconds; the
seeds vary the generated inputs but not the amount of work, so the spread
within a set is the host's run-to-run noise.

A metric's spread is (Q3 - Q1) / median, with quartiles as
statistics.quantiles(values, n=4) gives them. A metric passes when its
spread stays within its bound (setup_s is exempt from the spread rule) and
the second set's median is not worse than the first's by more than the
bound. A spread above a third of the bound passes but is marked "wide":
two runs of the same code can then differ by a large share of the bound.
Every run must report correct=true and failed=0, and runs of the same
seed must print the same result digest.

With --overhead, one traced run per workload is compared with the untraced
run of the same seed: the difference in request_ms_p50 is the tracing
overhead.

Run from the repository root:

    python3 simbench/steady.py                      # 2 sets x 10 runs
    python3 simbench/steady.py --runs 5 --workloads infer_mice
    python3 simbench/steady.py --runs 3 --overhead
"""

import argparse
import json
import statistics
import subprocess
import sys
import time

BENCH = "BENCHMARK.json"
SETS = 2


def run_once(command, workload, seed, seconds, trace):
    args = command + [
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", "1" if trace else "0",
    ]
    started = time.monotonic()
    proc = subprocess.run(args, capture_output=True, text=True, timeout=900)
    elapsed = time.monotonic() - started
    if proc.returncode != 0:
        sys.exit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    digest = next((l.split()[1] for l in lines if l.strip().startswith("digest ")), "")
    return result, digest, elapsed


def summarize(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def worse_by(first, second, better):
    if first == 0:
        return 0.0
    change = (second - first) / first
    return change if better == "lower" else -change


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10, help="runs (seeds) per set and workload")
    ap.add_argument("--workloads", nargs="*", help="subset of workloads")
    ap.add_argument("--overhead", action="store_true", help="also measure tracing overhead")
    opts = ap.parse_args()

    with open(BENCH) as f:
        bench = json.load(f)
    command = bench["command"]
    seconds = bench["run_seconds"]
    metrics = bench["end_to_end"]
    workloads = opts.workloads or [w["name"] for w in bench["workloads"]]
    seeds = list(range(1, opts.runs + 1))

    ok = True
    for workload in workloads:
        print(f"== {workload}: {SETS} sets x {opts.runs} runs, {seconds}s each")
        sets = []
        digests = {}
        for s in range(SETS):
            runs = []
            for seed in seeds:
                result, digest, elapsed = run_once(command, workload, seed, seconds, False)
                runs.append(result)
                if not result["correct"] or result["failed"] != 0:
                    ok = False
                    print(f"   FAIL seed {seed}: correct={result['correct']} failed={result['failed']}")
                if digests.setdefault(seed, digest) != digest:
                    ok = False
                    print(f"   FAIL seed {seed}: digest {digest} != {digests[seed]}")
                print(f"   set {s + 1} seed {seed}: {elapsed:.1f}s wall, "
                      f"{result['attempted']} ops, {result['failed']} failed")
            sets.append(runs)
        for m in metrics:
            name, bound = m["name"], m["bound"]
            medians = []
            for s, runs in enumerate(sets):
                values = [r["metrics"][name]["value"] for r in runs]
                med, q1, q3, spread = summarize(values)
                medians.append(med)
                if name == "setup_s":
                    verdict = "exempt"
                elif spread > bound:
                    verdict = "SPREAD"
                    ok = False
                else:
                    verdict = "ok" if spread <= bound / 3 else "wide"
                print(f"   {name:<18} set {s + 1}: median {med:.6g} {m['unit']} "
                      f"Q1 {q1:.6g} Q3 {q3:.6g} spread {spread:.3f} "
                      f"(bound {bound}, a third {bound / 3:.3f}) {verdict}")
            drift = worse_by(medians[0], medians[1], m["better"])
            verdict = "ok" if drift <= bound else "DRIFT"
            if verdict == "DRIFT":
                ok = False
            print(f"   {name:<18} set 2 vs set 1: worse by {drift:+.3f} "
                  f"(bound {bound}) {verdict}")
        if opts.overhead:
            traced, _, _ = run_once(command, workload, seeds[0], seconds, True)
            base = sets[0][0]["metrics"]["request_ms_p50"]["value"]
            with_trace = traced["metrics"]["trace.request_ms_p50"]["value"]
            est = traced["metrics"]["trace.overhead_pct_est"]["value"]
            cov = traced["metrics"]["trace.coverage"]["value"]
            print(f"   tracing overhead (seed {seeds[0]}): request_ms_p50 {base:.4g} untraced, "
                  f"{with_trace:.4g} traced ({100 * (with_trace - base) / base:+.1f}%); "
                  f"clock-read estimate {est:.2f}%; span coverage {cov:.3f}")
    print("steady: PASS" if ok else "steady: FAIL")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
