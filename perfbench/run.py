#!/usr/bin/env python3
"""End-to-end benchmark of certified answers.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Builds perfbench_driver (the repository's library plus perfbench/src) in
Release mode under $CARGO_TARGET_DIR/perfbench (default .bench_build),
runs one workload, and prints the driver's result object as the last line
of stdout. Build output and diagnostics go to stderr. Exits non-zero,
without a result, when the repository's sources are not next to this
directory, the build fails, or the driver fails or times out.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

WORKLOADS = ("grid-paper", "serve-mix", "net-replay")
DRIVER_TIMEOUT_S = 170
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build(bench_dir, build_dir):
    root = os.path.dirname(bench_dir)
    if not (os.path.isfile(os.path.join(root, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(root, "src"))):
        fail("no repository sources next to %s; nothing to build" % bench_dir)
    # Compiler temporaries stay inside the build directory too.
    tmp = os.path.join(build_dir, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", bench_dir, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.call(configure, stdout=sys.stderr, env=env) != 0:
            fail("cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    compile_cmd = ["cmake", "--build", build_dir, "--target",
                   "perfbench_driver", "-j", jobs]
    if subprocess.call(compile_cmd, stdout=sys.stderr, env=env) != 0:
        fail("build failed")
    return os.path.join(build_dir, "perfbench_driver")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()

    bench_dir = os.path.dirname(os.path.abspath(__file__))
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(os.path.abspath(target), "perfbench")
    driver = build(bench_dir, build_dir)

    scratch = os.path.join(build_dir, "run-%d" % os.getpid())
    shutil.rmtree(scratch, ignore_errors=True)
    command = [driver, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", args.trace,
               "--data", bench_dir, "--scratch", scratch]
    try:
        proc = subprocess.Popen(command, stdout=subprocess.PIPE, text=True)
        try:
            out, _ = proc.communicate(timeout=DRIVER_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            fail("driver exceeded %d s" % DRIVER_TIMEOUT_S)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    if proc.returncode != 0:
        fail("driver exited with %d" % proc.returncode)

    lines = out.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        fail("driver printed no result object")
    if set(result) != RESULT_KEYS or result["attempted"] < 1:
        fail("malformed result object: " + lines[-1])
    for line in lines[:-1]:
        print(line, file=sys.stderr)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
