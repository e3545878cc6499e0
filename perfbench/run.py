#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

    python3 perfbench/run.py --workload <name> --seed N --seconds S --trace 0|1

Run from the repository root. The first run configures and builds the
benchmark (perfbench/CMakeLists.txt, which compiles the library sources in
src/) into $CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench when that
variable is unset; later runs only check the build is current. Generated
inputs live in the build directory's work/ folder and are deleted by the
benchmark when it finishes.

The benchmark's standard output is passed through; its last line is the
result object {"correct", "attempted", "failed", "metrics"}. Build output
goes to standard error. Exits non-zero, printing no result, when the library
sources are missing, the build fails, or the benchmark fails or overruns.
"""

import json
import os
import subprocess
import sys

WORKLOADS = ("audit_hour", "table_sweep", "capture_ingest", "fleet_population")
FLAGS = ("--workload", "--seed", "--seconds", "--trace")
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def parse(argv):
    if len(argv) % 2 != 0:
        fail("arguments come in --flag value pairs")
    args = dict(zip(argv[0::2], argv[1::2]))
    unknown = set(args) - set(FLAGS)
    if unknown:
        fail(f"unknown flags: {' '.join(sorted(unknown))}")
    for required in FLAGS:
        if required not in args:
            fail(f"missing {required}")
    if args["--workload"] not in WORKLOADS:
        fail(f"unknown workload {args['--workload']!r}; expected one of {', '.join(WORKLOADS)}")
    return args


def build(package, build_dir):
    log = sys.stderr
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", package, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       check=True, stdout=log, stderr=log)
    jobs = str(max(1, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", build_dir, "--target", "tvacr_perfbench", "-j", jobs],
                   check=True, stdout=log, stderr=log)


def main():
    args = parse(sys.argv[1:])
    package = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(package)
    if not os.path.isfile(os.path.join(root, "src", "CMakeLists.txt")):
        fail(f"library sources not found at {os.path.join(root, 'src')}")

    build_dir = os.path.join(os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build")),
                             "perfbench")
    try:
        build(package, build_dir)
    except (OSError, subprocess.CalledProcessError) as error:
        fail(f"build failed: {error}")

    command = [os.path.join(build_dir, "tvacr_perfbench"),
               "--workdir", os.path.join(build_dir, "work")]
    for flag, value in args.items():
        command += [flag, value]
    try:
        result = subprocess.run(command, stdout=subprocess.PIPE, timeout=RUN_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        fail(f"benchmark overran {RUN_TIMEOUT_S} s")
    lines = result.stdout.strip().splitlines()
    if result.returncode != 0 or not lines:
        fail(f"benchmark exited with code {result.returncode}")
    try:
        json.loads(lines[-1])
    except json.JSONDecodeError:
        fail("benchmark printed no result")
    sys.stdout.write(result.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
