#!/usr/bin/env python3
"""The benchmark's own tests. Run from the root of a checkout:

    python3 perfbench/selftest.py

1. The pinned mc digest agrees with the repository's determinism golden for
   the same inputs (32 trials, seed 1).
2. A clean table2 run is correct and exits 0.
3. A run whose first pinned output is deliberately corrupted counts the ops
   behind that output as failed, reports correct=false and exits nonzero.
4. A traced run prints exactly the per-layer metrics BENCHMARK.json lists,
   with their units, and writes a trace file that parses as JSON.
5. In a directory holding only BENCHMARK.json and perfbench/, the command
   exits nonzero without printing a result.
"""
import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
GOLDEN = os.path.join(ROOT, "tests", "determinism", "golden",
                      "mc_trials32_seed1.txt")


def fnv1a64(data):
    h = 1469598103934665603
    for b in data:
        h = ((h ^ b) * 1099511628211) & 0xFFFFFFFFFFFFFFFF
    return "%016x" % h


def run(args, cwd=ROOT):
    proc = subprocess.run([sys.executable, "perfbench/run.py"] + args,
                          cwd=cwd, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, lines


def result(lines):
    return json.loads(lines[-1])


def main():
    failures = []

    def check(ok, what):
        print(("ok   " if ok else "FAIL ") + what)
        if not ok:
            failures.append(what)

    with open(os.path.join(HERE, "pins.json")) as f:
        pins = json.load(f)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)

    if os.path.exists(GOLDEN):
        with open(GOLDEN, "rb") as f:
            check(fnv1a64(f.read()) == pins["digests"]["mc"],
                  "mc pin agrees with " + os.path.relpath(GOLDEN, ROOT))

    base = ["--workload", "table2", "--seed", "1", "--seconds", "1"]
    rc, lines = run(base + ["--trace", "0"])
    r = result(lines)
    check(rc == 0 and r["correct"] and r["failed"] == 0,
          "clean table2 run is correct")
    wanted = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    check({k: v["unit"] for k, v in r["metrics"].items()} == wanted,
          "untraced run prints exactly the end-to-end metrics")

    rc, lines = run(base + ["--trace", "0", "--corrupt-output"])
    r = result(lines)
    check(rc != 0 and not r["correct"] and r["failed"] >= 6,
          "corrupted output counts as failed ops (failed=%d)" % r["failed"])

    rc, lines = run(base + ["--trace", "1"])
    r = result(lines)
    wanted = {m["name"]: m["unit"] for m in bench["per_layer"]}
    check(rc == 0 and r["correct"], "traced table2 run is correct")
    check({k: v["unit"] for k, v in r["metrics"].items()} == wanted,
          "traced run prints exactly the per-layer metrics")
    trace = [l.split(": ", 1)[1] for l in lines if l.startswith("trace file: ")]
    with open(trace[0]) as f:
        events = json.load(f)["traceEvents"]
    check(len(events) > 0, "trace file parses as JSON (%d spans)" % len(events))

    scratch = tempfile.mkdtemp(dir=ROOT, prefix=".bench_build_selftest")
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), scratch)
        shutil.copytree(HERE, os.path.join(scratch, "perfbench"))
        proc = subprocess.run(bench["command"] + base + ["--trace", "0"],
                              cwd=scratch, capture_output=True, text=True,
                              env=dict(os.environ, CARGO_TARGET_DIR=".bench_build"))
        check(proc.returncode != 0 and '"correct"' not in proc.stdout,
              "benchmark alone (no sources) exits %d with no result"
              % proc.returncode)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    print("%d failure(s)" % len(failures))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
