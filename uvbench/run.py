#!/usr/bin/env python3
"""Build the program from source and run one workload of the what-if benchmark.

    python3 uvbench/run.py --workload cold-tpcc --seed 1 --seconds 30 --trace 0
    python3 uvbench/run.py --workload all --seed 1 --seconds 30 --trace 0
    python3 uvbench/run.py --self-test

Run from the root of a source checkout. The build output goes to stderr;
stdout carries the benchmark's report, whose last line is the JSON result
({"correct", "attempted", "failed", "metrics"}). The exit code is the
benchmark's: 0 when every correctness check passed, non-zero otherwise or
when the checkout cannot be built. `--workload all` runs the three
workloads one after another and fails if any of them fails.
"""

import argparse
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["cold-tpcc", "session-tatp", "serve-astore"]
CLI = "_build/default/bin/ultraverse.exe"
# a run is warm-up (4 s, twice that in the traced run's two halves), the
# timed region, five set-ups and the checks
SETUP_AND_CHECKS_S = 110


def build(targets):
    # the shared dune cache lives outside the checkout: keep it off
    env = dict(os.environ, DUNE_CACHE="disabled")
    return subprocess.run(
        ["dune", "build", "--root", ROOT] + targets,
        cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr,
    ).returncode


def commit():
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
        return out.stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def run(cmd, timeout):
    # own process group, so a hung run cannot leave a daemon behind
    proc = subprocess.Popen(cmd, cwd=ROOT, start_new_session=True)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        print("uvbench: run timed out", file=sys.stderr)
        return 3


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--self-test", action="store_true",
                    help="run every workload twice at a tiny size and compare work counters")
    args = ap.parse_args()
    if not args.self_test and args.workload is None:
        ap.error("--workload is required")
    missing = [p for p in ("dune-project", "lib", "bin") if not os.path.exists(os.path.join(ROOT, p))]
    if missing:
        print("uvbench: not a source checkout (missing %s)" % ", ".join(missing), file=sys.stderr)
        return 2
    if args.self_test:
        if build([CLI, "./uvbench/test/selftest.exe"]) != 0:
            return 2
        return run(["_build/default/uvbench/test/selftest.exe", "--exe", CLI, "--work-dir", ".uvbench/selftest"],
                   SETUP_AND_CHECKS_S)
    if build([CLI, "./uvbench/main.exe"]) != 0:
        return 2
    rev = commit()
    codes = [
        run([
            "_build/default/uvbench/main.exe",
            "--workload", w, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
            "--exe", CLI, "--work-dir", ".uvbench", "--commit", rev,
        ], 2 * args.seconds + SETUP_AND_CHECKS_S)
        for w in (WORKLOADS if args.workload == "all" else [args.workload])
    ]
    return max(codes)


if __name__ == "__main__":
    sys.exit(main())
