#!/usr/bin/env python3
"""Builds and runs the xnfdb end-to-end benchmark.

    python3 xnfbench/run.py --workload extract --seed 1 --seconds 10 --trace 0

Builds the engine and the driver from this checkout's sources (Release,
into $CARGO_TARGET_DIR/xnfbench, default .bench_build/xnfbench), then runs
one workload. The last stdout line is the result JSON; the line before it
is the run record. Refuses to run when any XNFDB_* variable is set, so two
commits are always measured with the engine defaults.

    python3 xnfbench/run.py --check-determinism [--ops N]

runs every workload twice with the same seed for a fixed op count and
checks that the op sequence and the work counters repeat exactly.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ["extract", "serve_mixed", "oo1_session"]


def build_dir():
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    return target / "xnfbench"


def build():
    out = build_dir()
    steps = []
    if not (out / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out), "-j4"])
    for cmd in steps:
        # Build output goes to stderr: stdout carries only the result.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return None
    return out / "xnfbench"


def run(binary, workload, seed, seconds, trace, ops=0):
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if ops:
        cmd += ["--ops", str(ops), "--setups", "1"]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=170)
    return proc.returncode, proc.stdout.splitlines()


def check_determinism(binary, ops, seed):
    ok = True
    for workload in WORKLOADS:
        seen = []
        for _ in range(2):
            code, lines = run(binary, workload, seed, 1, 0, ops)
            if code != 0 or len(lines) < 2:
                print(f"{workload}: run failed ({code})")
                return False
            rec = json.loads(lines[-2][len("record: "):])
            seen.append((rec["op_sequence_hash"], rec["work_counters"],
                         rec["failed"]))
        same = seen[0] == seen[1]
        ok = ok and same
        print(f"{workload}: {'identical' if same else 'DIFFERENT'} "
              f"op sequence {seen[0][0]} counters {seen[0][1]}"
              + ("" if same else f" vs {seen[1][0]} {seen[1][1]}"))
    return ok


def main():
    p = argparse.ArgumentParser()
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--check-determinism", action="store_true")
    p.add_argument("--ops", type=int, default=300)
    args = p.parse_args()

    knobs = sorted(k for k in os.environ if k.startswith("XNFDB_"))
    if knobs:
        print("refusing to run with engine knobs set: " + ", ".join(knobs),
              file=sys.stderr)
        return 2
    if not args.check_determinism and args.workload is None:
        p.error("--workload is required")
    binary = build()
    if binary is None:
        print("build failed", file=sys.stderr)
        return 1
    if args.check_determinism:
        return 0 if check_determinism(binary, args.ops, args.seed) else 1
    code, lines = run(binary, args.workload, args.seed, args.seconds,
                      args.trace)
    if code != 0:
        return code
    print("\n".join(lines), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
