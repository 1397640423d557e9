#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

    python3 perfbench/run.py --workload mc|table2|flow|powerfail|all \\
        --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --make-pins    # regenerate perfbench/pins.json

Run it from the root of a checkout. The build goes to
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench), traces to its
out/ directory; nothing else is written. The last line of standard output is
the run's JSON result; the exit code is 0 only when every output checked
out. See perfbench/README.md.
"""
import argparse
import fcntl
import os
import shutil
import signal
import subprocess
import sys

WORKLOADS = ["mc", "table2", "flow", "powerfail"]
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
PINS = os.path.join(HERE, "pins.json")


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(os.path.abspath(target), "perfbench")


def run_child(cmd, **kwargs):
    """Runs cmd to completion; if we are interrupted (SIGTERM, Ctrl-C) the
    child is stopped and reaped before we exit."""
    child = subprocess.Popen(cmd, **kwargs)

    def stop(signum, _frame):
        raise SystemExit(128 + signum)

    previous = signal.signal(signal.SIGTERM, stop)
    try:
        return child.wait()
    finally:
        if child.poll() is None:
            child.terminate()
            try:
                child.wait(timeout=10)
            except subprocess.TimeoutExpired:
                child.kill()
                child.wait()
        signal.signal(signal.SIGTERM, previous)


def build(out):
    """Configures and builds into `out`; returns the binary or None."""
    if shutil.which("cmake") is None:
        print("perfbench: cmake not found", file=sys.stderr)
        return None
    os.makedirs(out, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    # Concurrent runs in one checkout share the build; serialize it.
    with open(os.path.join(out, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
            if run_child(["cmake", "-S", HERE, "-B", out,
                          "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                         stdout=sys.stderr) != 0:
                shutil.rmtree(out, ignore_errors=True)
                return None
        if run_child(["cmake", "--build", out, "-j", jobs],
                     stdout=sys.stderr) != 0:
            return None
    return os.path.join(out, "nvff_perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--corrupt-output", action="store_true",
                        help="self-test: corrupt the first pinned output")
    parser.add_argument("--make-pins", action="store_true")
    args = parser.parse_args()
    if not args.make_pins and args.workload is None:
        parser.error("--workload is required")

    out = build_dir()
    binary = build(out)
    if binary is None:
        print("perfbench: build failed", file=sys.stderr)
        return 1

    if args.make_pins:
        rev = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        revision = rev.stdout.strip() if rev.returncode == 0 else "unknown"
        result = subprocess.run([binary, "--make-pins", "--pins", PINS,
                                 "--revision", revision],
                                stdout=subprocess.PIPE, text=True)
        if result.returncode != 0:
            return result.returncode
        with open(PINS, "w") as f:
            f.write(result.stdout)
        print(result.stdout, end="")
        return 0

    results = os.path.join(out, "out")
    os.makedirs(results, exist_ok=True)
    failed = 0
    for workload in WORKLOADS if args.workload == "all" else [args.workload]:
        cmd = [binary, "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--pins", PINS, "--out", results]
        if args.corrupt_output:
            cmd.append("--corrupt-output")
        if args.workload == "all":
            print("== " + workload, flush=True)
        sys.stdout.flush()
        failed += run_child(cmd) != 0
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
