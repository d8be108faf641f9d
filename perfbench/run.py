#!/usr/bin/env python3
"""Builds and runs the simulator benchmark (README.md in this directory).

    python3 perfbench/run.py --workload sweep|sweep_tiered|hierarchy|farm|all \
        [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout. The benchmark and the library sources in
src/ are built with CMake into $CARGO_TARGET_DIR/perfbench (default
.bench_build/perfbench); build output goes to stderr. The benchmark's report
and its final JSON result line go to stdout. Spill files live in a private
scratch dir under the build dir, which is emptied before and checked after
every run.

`all` runs the four workloads one after another, each in a process of its
own (so each peak_rss_mb is that workload's own peak), and prints one JSON
line with every metric prefixed by its workload's name.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["sweep", "sweep_tiered", "hierarchy", "farm"]


def build(build_dir, jobs):
    """Configures (once) and builds efd_perfbench; returns the binary path."""
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
            stdout=sys.stderr, stderr=sys.stderr, check=True)
    subprocess.run(
        ["cmake", "--build", build_dir, "--target", "efd_perfbench", "-j", str(jobs)],
        stdout=sys.stderr, stderr=sys.stderr, check=True)
    return os.path.join(build_dir, "efd_perfbench")


def run_one(binary, tmp, workload, args):
    """Runs one workload; returns (exit code, its stdout lines)."""
    shutil.rmtree(tmp, ignore_errors=True)
    os.makedirs(tmp)
    cmd = [binary, "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), "--tmp", tmp]
    p = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    leftovers = [os.path.join(d, f) for d, _, files in os.walk(tmp) for f in files]
    shutil.rmtree(tmp, ignore_errors=True)
    rc = p.returncode
    if leftovers:
        print(f"perfbench: {len(leftovers)} file(s) left in the scratch dir", file=sys.stderr)
        rc = rc or 3
    return rc, p.stdout.splitlines()


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--seconds", type=int, default=25)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    target_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, target_dir, "perfbench")
    try:
        binary = build(build_dir, max(1, min(4, os.cpu_count() or 1)))
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 2
    tmp = os.path.join(build_dir, "scratch")

    if args.workload != "all":
        rc, lines = run_one(binary, tmp, args.workload, args)
        print("\n".join(lines), flush=True)
        return rc

    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for w in WORKLOADS:
        rc, lines = run_one(binary, tmp, w, args)
        for line in lines[:-1]:
            print(f"# {w}: {line[2:]}" if line.startswith("# ") else line, flush=True)
        if rc != 0 or not lines:
            print(f"perfbench: workload {w} failed with exit code {rc}", file=sys.stderr)
            return rc or 4
        r = json.loads(lines[-1])
        total["correct"] = total["correct"] and r["correct"]
        total["attempted"] += r["attempted"]
        total["failed"] += r["failed"]
        for name, m in r["metrics"].items():
            total["metrics"][f"{w}.{name}"] = m
    print(json.dumps(total))
    return 0


if __name__ == "__main__":
    sys.exit(main())
