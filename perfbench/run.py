#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

Run from anywhere inside a checkout:

    python3 perfbench/run.py --workload page_loads --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --list

The first run configures and builds perfbench/ (the simulator's library
sources plus the benchmark binary) into .bench_build/perfbench; later runs
rebuild only what changed.  Build output goes to .bench_build/build.log and,
on failure, to stderr.  The arguments go to the binary unchanged, which
parses them strictly; its stdout is passed through, so the last line is the
result JSON.  The binary runs from the checkout root and writes its
artifacts under .bench_build/out/.
"""
import os
import shutil
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
WORK = os.path.join(ROOT, ".bench_build")


def build():
    """Returns the benchmark binary's path; exits 1 if it cannot be built."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print(f"perfbench: no simulator sources under {ROOT}/src", file=sys.stderr)
        sys.exit(1)
    build_dir = os.path.join(WORK, "perfbench")
    os.makedirs(build_dir, exist_ok=True)
    log_path = os.path.join(WORK, "build.log")
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", BENCH_DIR, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        steps.append(configure)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps.append(["cmake", "--build", build_dir, "-j", jobs])
    with open(log_path, "w") as log:
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT).returncode:
                with open(log_path) as text:
                    sys.stderr.write(text.read()[-8000:])
                print(f"perfbench: build failed: {' '.join(step)}", file=sys.stderr)
                sys.exit(1)
    return os.path.join(build_dir, "perfbench")


def main():
    binary = build()
    sys.stdout.flush()
    return subprocess.run([binary] + sys.argv[1:], cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
