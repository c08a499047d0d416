#!/usr/bin/env python3
"""Repeat each workload with distinct seeds and report how steady it is.

    python3 perfbench/steady.py [--runs 10]

Run from the repository root.  For every workload in BENCHMARK.json it runs
perfbench/run.py `--runs` times for BENCHMARK.json's run_seconds, with seeds
1, 2, ..., so two invocations see the same instances.  It prints for each
end-to-end metric the median, the quartiles (statistics.quantiles, n=4), the
spread (q3 - q1) / median, and the metric's bound from BENCHMARK.json, plus
the median host reference time (see README), which shows whether the
machine itself ran faster or slower than in another invocation.  A
spread above a third of its bound is flagged; setup_s is shown but exempt.
The bounds in BENCHMARK.json were set from this output.  Exits non-zero if
any run fails or reports correct: false.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: correct is false")
    return json.loads(lines[-2]), result


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    args = ap.parse_args()
    seconds = bench["run_seconds"]

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    summary = {}
    steady = True
    for workload in (w["name"] for w in bench["workloads"]):
        values = {}
        host = []
        for seed in range(1, args.runs + 1):
            details, result = run_once(workload, seed, seconds)
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            host.append(statistics.mean(details["host_reference_ms"]))
            print(f"{workload} seed {seed}: host_reference_ms={host[-1]:.1f} " +
                  " ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()),
                  file=sys.stderr, flush=True)
        print(f"\n== {workload}: {args.runs} runs of {seconds} s, "
              f"host reference median {statistics.median(host):.1f} ms")
        print(f"{'metric':<16} {'median':>14} {'q1':>14} {'q3':>14} {'spread':>8} {'bound':>6}")
        summary[workload] = {}
        for name, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else 0.0
            bound = bounds.get(name)
            flag = ""
            if bound is not None and name != "setup_s" and spread > bound / 3:
                flag = "  <- above bound/3"
                steady = False
            print(f"{name:<16} {med:>14.6g} {q1:>14.6g} {q3:>14.6g} {spread:>8.4f} "
                  f"{bound if bound is not None else '-':>6}{flag}")
            summary[workload][name] = {"median": med, "q1": q1, "q3": q3,
                                       "spread": spread, "values": vals}
        summary[workload]["host_reference_ms"] = host
    print(json.dumps({"steady": steady, "runs": args.runs, "seconds": seconds,
                      "workloads": summary}))
    sys.exit(0 if steady else 2)


if __name__ == "__main__":
    main()
