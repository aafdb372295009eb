#!/usr/bin/env python3
"""Build and run the repository benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The first run builds perfbench/bench.exe
with dune; later runs reuse the build. The benchmark's stdout is passed
through: its last line is the result object, the line before it the
detail object, to which this script adds the host's OS and architecture.
Exits non-zero without printing a result when the checkout cannot be
built or the benchmark fails.
"""

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys

EXE = os.path.join("_build", "default", "perfbench", "bench.exe")
WORKDIR = ".bench_work"
RUN_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def dune():
    found = shutil.which("dune")
    if found:
        return [found]
    if shutil.which("opam"):
        return ["opam", "exec", "--", "dune"]
    fail("dune not found on PATH")


def build():
    for needed in ("dune-project", "lib", os.path.join("perfbench", "dune")):
        if not os.path.exists(needed):
            fail("not the root of a buildable checkout: %s is missing" % needed)
    # The shared dune cache lives outside the checkout; keep the build inside it.
    cmd = dune() + ["build", "--root", ".", "--cache=disabled", "--display=quiet",
                    "./perfbench/bench.exe"]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                          text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        fail("build failed")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    build()
    cmd = [EXE, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--workdir", WORKDIR]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        shutil.rmtree(WORKDIR, ignore_errors=True)
        fail("benchmark exceeded %d s" % RUN_TIMEOUT_S)
    if proc.returncode != 0:
        shutil.rmtree(WORKDIR, ignore_errors=True)
        fail("benchmark exited with code %d" % proc.returncode)

    lines = proc.stdout.strip().splitlines()
    if len(lines) < 2:
        fail("benchmark printed no result")
    detail, result = json.loads(lines[-2]), json.loads(lines[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail("malformed result line")
    detail["host"].update(system=platform.system(), machine=platform.machine(),
                          release=platform.release(), python=platform.python_version())
    for line in lines[:-2]:
        print(line)
    print(json.dumps(detail))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
