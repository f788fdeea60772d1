#!/usr/bin/env python3
"""Builds and runs the repository benchmark (README.md beside this file).

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from the repository root. It configures and builds perfbench/ (which
compiles the library from src/) with CMake in Release mode under
$CARGO_TARGET_DIR, default .bench_build, then runs the benchmark binary
with the same arguments. Build output goes to stderr, so the result JSON
stays the last line of stdout. A traced run writes its host spans and the
program's virtual trace under <build dir>/perfbench/traces.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main():
    build_root = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    build_dir = os.path.join(build_root, "perfbench")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [
        ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", build_dir, "-j", jobs],
    ]
    for step in steps:
        try:
            built = subprocess.run(step, stdout=sys.stderr).returncode == 0
        except OSError as err:
            print(f"perfbench: cannot run {step[0]}: {err}", file=sys.stderr)
            built = False
        if not built:
            print("perfbench: build failed", file=sys.stderr)
            return 1
    out_dir = os.path.join(build_dir, "traces")
    os.makedirs(out_dir, exist_ok=True)
    binary = os.path.join(build_dir, "perfbench")
    return subprocess.run([binary, *sys.argv[1:], "--out", out_dir]).returncode


if __name__ == "__main__":
    sys.exit(main())
