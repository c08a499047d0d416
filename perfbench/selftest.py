#!/usr/bin/env python3
"""Self-test of the benchmark's exact counts and seeded inputs.

    python3 perfbench/selftest.py

Run from the repository root.  For every workload in BENCHMARK.json it makes
two runs with seed 7 and one with seed 8 (one second of timing, so each run
issues only its minimum number of ops) and asserts:
  * every run reports correct: true and ok_ratio 1;
  * the two same-seed runs report identical model_rounds, model_words and
    pool digest;
  * the other seed gives a different pool digest, i.e. different instances.
It also asserts that a traced run reports every per_layer metric named in
BENCHMARK.json.  Exits non-zero on the first failed assertion.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEED = 7


def run(workload, seed, trace="0"):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", trace]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"FAIL {workload} seed {seed}: exit {proc.returncode}")
    return json.loads(lines[-2]), json.loads(lines[-1])


def check(cond, msg):
    print(("ok   " if cond else "FAIL ") + msg, flush=True)
    if not cond:
        raise SystemExit(1)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    workloads = [w["name"] for w in bench["workloads"]]
    for workload in workloads:
        runs = [run(workload, SEED), run(workload, SEED), run(workload, SEED + 1)]
        for details, result in runs:
            check(result["correct"] and result["failed"] == 0 and
                  result["metrics"]["ok_ratio"]["value"] == 1.0,
                  f"{workload} seed {details['seed']}: every output passed its check")
        (d1, r1), (d2, r2), (d3, _) = runs
        for name in ("model_rounds", "model_words"):
            a, b = r1["metrics"][name]["value"], r2["metrics"][name]["value"]
            check(a == b, f"{workload}: {name} repeats exactly for seed {SEED} ({a} == {b})")
        check(d1["info"]["pool_digest"] == d2["info"]["pool_digest"],
              f"{workload}: seed {SEED} regenerates the same instances")
        check(d1["info"]["pool_digest"] != d3["info"]["pool_digest"],
              f"{workload}: seed {SEED + 1} generates different instances")

    workload = workloads[0]
    _, traced = run(workload, SEED, trace="1")
    missing = [m["name"] for m in bench["per_layer"] if m["name"] not in traced["metrics"]]
    check(not missing, f"traced {workload} run reports every per_layer metric"
          + (f" (missing {missing})" if missing else ""))


if __name__ == "__main__":
    main()
