#!/usr/bin/env python3
"""Build and run the gateway benchmark from the root of a checkout.

    python3 gwbench/run.py --workload ble_hot --seed 1 --seconds 20 --trace 0
    python3 gwbench/run.py --selftest

The first call configures and builds gwbench/ (which compiles the
repository's src/ alongside the benchmark) into $CARGO_TARGET_DIR, the
conventional build-output variable, or .bench_build when that is unset; later
calls rebuild only what changed. Build output goes to stderr, so the
benchmark's JSON result stays the last line of stdout. A traced run
(--trace 1) writes its spans next to the build.
"""
import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("ble_hot", "wifi_cold", "ble_swap")


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(path):
        path = os.path.join(ROOT, path)
    return os.path.join(path, "gwbench")


def build(target):
    out = build_dir()
    jobs = str(min(4, os.cpu_count() or 1))
    configure = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
    if shutil.which("ninja"):
        configure += ["-G", "Ninja"]
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(configure)
    steps.append(["cmake", "--build", out, "--target", target, "-j", jobs])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            sys.exit(f"gwbench: build failed: {' '.join(step)}")
    return os.path.join(out, target)


def commit():
    """The checkout's commit, or 'unknown' outside a git work tree."""
    # Never look for a repository above the checkout.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        result = subprocess.run(["git", "-C", ROOT, "rev-parse", "--short=12", "HEAD"],
                                capture_output=True, text=True, timeout=10, env=env)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return result.stdout.strip() if result.returncode == 0 else "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="build and run the benchmark's own tests instead")
    args = parser.parse_args()

    if args.selftest:
        return subprocess.run([build("gwbench_test")]).returncode
    if args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0:
        parser.error("--seed must be a non-negative integer")

    binary = build("gwbench")
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--commit", commit()]
    if args.trace:
        command += ["--trace-out", os.path.join(
            build_dir(), f"spans-{args.workload}-seed{args.seed}.json")]
    return subprocess.run(command).returncode


if __name__ == "__main__":
    sys.exit(main())
