#!/usr/bin/env python3
"""Builds and runs one workload of the Wishbone benchmark.

Usage (from the root of a checkout):
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

The benchmark package (perfbench/CMakeLists.txt) compiles the library
from the checkout's src/ tree. The build goes to $CARGO_TARGET_DIR
(relative paths are taken from the checkout root) or to .bench_build.
Build output goes to stderr; the workload's output goes to stdout, and
its last line is one JSON object with the keys correct, attempted,
failed and metrics. Any build or run failure exits non-zero without
printing a result.
"""

import argparse
import fcntl
import json
import os
import shutil
import signal
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCE = os.path.join(ROOT, "perfbench")
WORKLOADS = ("fig6_sweep", "serve_drift", "stream_eeg", "stream_speech")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def run_group(cmd, timeout, **kwargs):
    """subprocess.run in a process group of its own, so that a timeout
    kills every process the command started (compilers under cmake)."""
    with subprocess.Popen(cmd, start_new_session=True, **kwargs) as proc:
        try:
            out, _ = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            raise
        return subprocess.CompletedProcess(cmd, proc.returncode, out)


def build(out):
    os.makedirs(out, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    configure = ["cmake", "-S", SOURCE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja"):
        configure += ["-G", "Ninja"]
    with open(os.path.join(out, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)  # one build at a time per tree
        steps = [configure, ["cmake", "--build", out, "-j", jobs]]
        deadline = time.monotonic() + BUILD_TIMEOUT_S
        for cmd in steps:
            left = deadline - time.monotonic()
            done = run_group(cmd, max(1.0, left), stdout=sys.stderr,
                             stderr=sys.stderr)
            if done.returncode != 0:
                raise subprocess.CalledProcessError(done.returncode, cmd)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1))
    ap.add_argument("--selftest", action="store_true",
                    help="show that every output check rejects a corrupted output")
    args = ap.parse_args()
    if not args.selftest and None in (args.workload, args.seed, args.seconds,
                                      args.trace):
        ap.error("--workload, --seed, --seconds and --trace are required")

    out = build_dir()
    try:
        build(out)
    except (OSError, subprocess.SubprocessError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1

    if args.selftest:
        return run_group([os.path.join(out, "perfbench_checks_test")],
                         RUN_TIMEOUT_S).returncode

    cmd = [os.path.join(out, "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--trace-out",
                os.path.join(out, f"spans-{args.workload}-{args.seed}.tsv")]
    try:
        proc = run_group(cmd, RUN_TIMEOUT_S, stdout=subprocess.PIPE, text=True)
    except subprocess.TimeoutExpired:
        print(f"perfbench: {args.workload} did not finish in "
              f"{RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout)
        print(f"perfbench: {args.workload} exited with {proc.returncode}",
              file=sys.stderr)
        return 1
    try:
        result = json.loads(lines[-1])
        if set(result) != {"correct", "attempted", "failed", "metrics"}:
            raise ValueError("unexpected keys")
    except ValueError as e:
        sys.stderr.write(proc.stdout)
        print(f"perfbench: malformed result line: {e}", file=sys.stderr)
        return 1
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result, separators=(",", ":")))
    return 0


if __name__ == "__main__":
    sys.exit(main())
