#!/usr/bin/env python3
"""Build and run one perfbench workload.

    python3 perfbench/run.py --workload solve|ipm|serve --seed N \
        --seconds S --trace 0|1

Run from the repository root.  Configures and builds perfbench/ (which
compiles the library from src/) as a Release build under
.bench_build/perfbench, then runs the workload in a fresh process.  The build
log goes to stderr; stdout carries the benchmark's two JSON lines, the last
of which is the result.  Exits non-zero, without a result, when the build
fails, and non-zero after the result when any output failed its check.
"""

import argparse
import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build():
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "perfbench", "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(cmd))
    return os.path.join(BUILD, "perfbench")


def git_sha():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "none"
    out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                         capture_output=True, text=True)
    return out.stdout.strip() if out.returncode == 0 else "none"


def source_digest():
    """sha256 over the library and benchmark sources, for checkouts with no git."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=["solve", "ipm", "serve"])
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=["0", "1"])
    args = ap.parse_args()

    exe = build()
    spans = os.path.join(BUILD, "spans")
    os.makedirs(spans, exist_ok=True)
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--trace-out", os.path.join(spans, f"{args.workload}-seed{args.seed}.json"),
           "--git-sha", git_sha(), "--source-digest", source_digest()]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        fail(f"perfbench exited with {proc.returncode} and no result")
    print("\n".join(lines), flush=True)
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
